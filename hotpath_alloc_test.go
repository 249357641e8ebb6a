package rtmac_test

import (
	"io"
	"math"
	"runtime"
	"testing"

	"rtmac"
)

// ---------------------------------------------------------------------------
// Steady-state allocation guard: the per-interval hot path must not allocate.
//
// Every layer under Simulation.Run — engine timer pool and slot clock, medium
// transmission pool, contention bookkeeping, protocol scratch, debt vectors,
// telemetry instrumentation — reuses memory once the first intervals have
// sized the pools. This test pins that contract with testing.AllocsPerRun so
// any future per-interval allocation fails CI instead of silently eroding
// throughput. AllocsPerRun divides by the run count and rounds down, so it
// proves fewer than one allocation per interval on average; the event-stream
// pin below counts mallocs exactly. See docs/PERFORMANCE.md for the
// discipline these guards enforce.
// ---------------------------------------------------------------------------

// newHotPathSim builds the control scenario used by the BenchmarkInterval*
// benchmarks: 10 links, Bernoulli 0.78 arrivals, 99% delivery ratio.
func newHotPathSim(t *testing.T, protocol rtmac.Protocol) *rtmac.Simulation {
	t.Helper()
	return newHotPathSimConflicts(t, protocol, nil)
}

// newHotPathSimConflicts is newHotPathSim with an explicit conflict graph.
func newHotPathSimConflicts(t *testing.T, protocol rtmac.Protocol, conflicts *rtmac.ConflictGraph) *rtmac.Simulation {
	t.Helper()
	links := make([]rtmac.Link, 10)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:      1,
		Profile:   rtmac.ControlProfile(),
		Links:     links,
		Conflicts: conflicts,
		Protocol:  protocol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hotPathConflicts returns the two-clique spatial-reuse graph the
// conflict-path guards and benchmarks run under.
func hotPathConflicts(t *testing.T) *rtmac.ConflictGraph {
	t.Helper()
	g, err := rtmac.CliqueConflicts(10, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hotPathProtocols lists every policy whose interval loop must stay
// allocation-free in steady state.
func hotPathProtocols() map[string]rtmac.Protocol {
	return map[string]rtmac.Protocol{
		"dbdp":      rtmac.DBDP(),
		"ldf":       rtmac.LDF(),
		"fcsma":     rtmac.FCSMA(),
		"framecsma": rtmac.FrameCSMA(),
		"tdma":      rtmac.TDMA(),
	}
}

// TestHotPathZeroAlloc runs each protocol past its warm-up (the first
// intervals size the timer, transmission, and scratch pools) and then demands
// exactly zero allocations per simulated interval with telemetry events
// disabled (no sinks attached — the default).
func TestHotPathZeroAlloc(t *testing.T) {
	const (
		warmup = 200 // intervals to fill every pool and scratch buffer
		runs   = 100 // intervals measured by AllocsPerRun
	)
	for name, protocol := range hotPathProtocols() {
		t.Run(name, func(t *testing.T) {
			s := newHotPathSim(t, protocol)
			if err := s.Run(warmup); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(runs, func() {
				if err := s.Run(1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs per steady-state interval, want 0", name, allocs)
			}
		})
	}
}

// TestHotPathZeroAllocConflictGraph extends the zero-allocation contract to
// the conflict-graph medium: both the complete graph (which must ride the
// exact legacy code paths) and a genuinely sparse two-clique graph (which
// exercises the per-neighborhood contention clock, the graph-mode protocol
// branches, and the medium's neighborhood busy counters) must stay
// allocation-free per interval once warm, with observability disabled.
func TestHotPathZeroAllocConflictGraph(t *testing.T) {
	const (
		warmup = 200
		runs   = 100
	)
	complete, err := rtmac.CompleteConflicts(10)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*rtmac.ConflictGraph{
		"complete":   complete,
		"two-clique": hotPathConflicts(t),
	}
	for gName, graph := range graphs {
		for pName, protocol := range hotPathProtocols() {
			t.Run(gName+"/"+pName, func(t *testing.T) {
				s := newHotPathSimConflicts(t, protocol, graph)
				if err := s.Run(warmup); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(runs, func() {
					if err := s.Run(1); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s/%s: %.1f allocs per steady-state interval, want 0",
						gName, pName, allocs)
				}
			})
		}
	}
}

// TestHotPathAllocBoundWithTelemetry extends the zero-allocation contract to
// a JSONL event stream: the instrumentation reuses scratch field maps and the
// stream encodes each event into its own reused line buffer (see
// docs/PERFORMANCE.md), so an interval with the stream attached allocates
// nothing either. The count is exact, not rounded per interval. The malloc
// counter is process-wide, so a stray allocation by the test harness or the
// runtime can land in a window; the pin takes the fewest over three windows,
// which a per-event allocation would still leave above zero.
func TestHotPathAllocBoundWithTelemetry(t *testing.T) {
	s := newHotPathSim(t, rtmac.DBDP())
	stream := s.StreamEvents(io.Discard)
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	before := stream.Count()
	const runs = 100
	allocs := uint64(math.MaxUint64)
	for range 3 {
		allocs = min(allocs, mallocsDuring(runs, func() {
			if err := s.Run(1); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs != 0 {
		t.Errorf("telemetry-enabled intervals allocate %d over %d, want 0", allocs, runs)
	}
	if stream.Count() == before {
		t.Error("no events were streamed during the measured intervals")
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathZeroAllocObserved attaches every deterministic observation plane
// at once — the event stream, the strict monitor with its default flight
// recorder, journeys at sample 1 and the watch engine. No plane allocates
// per event; what remains is high-water growth of reused storage (a
// flight-recorder bucket's arena, the journey pool, a line buffer) when an
// interval is busier than any that storage has held before. That growth
// stops once every buffer has seen its largest interval, so it is bounded
// here at one allocation per twenty intervals, not pinned at exactly zero.
func TestHotPathZeroAllocObserved(t *testing.T) {
	const (
		warmup = 300 // also fills every flight-recorder bucket once
		runs   = 1000
	)
	for _, name := range []string{"dbdp", "ldf"} {
		t.Run(name, func(t *testing.T) {
			s := newHotPathSim(t, hotPathProtocols()[name])
			jt, err := s.EnableJourneys(io.Discard, 1)
			if err != nil {
				t.Fatal(err)
			}
			stream := s.StreamEvents(io.Discard)
			mon, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.EnableWatch(rtmac.WatchConfig{}); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(warmup); err != nil {
				t.Fatal(err)
			}
			allocs := mallocsDuring(runs, func() {
				if err := s.Run(1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > runs/20 {
				t.Errorf("%s: %d allocs over %d observed steady-state intervals, want <= %d",
					name, allocs, runs, runs/20)
			}
			if stream.Count() == 0 || jt.Count() == 0 || mon.FlightRecorderEvents() == 0 {
				t.Errorf("a plane saw nothing: events=%d journeys=%d recorder=%d",
					stream.Count(), jt.Count(), mon.FlightRecorderEvents())
			}
			if err := stream.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := jt.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// mallocsDuring returns the exact number of heap allocations made by runs
// calls of f, measured like testing.AllocsPerRun (one warm-up call first,
// GOMAXPROCS pinned to 1) but without dividing by runs, so a rare
// allocation cannot round down to zero.
func mallocsDuring(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
