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
// sized the pools. These tests pin that contract by counting
// runtime.MemStats.Mallocs exactly over a window of steady-state intervals,
// so any future per-interval allocation fails CI instead of silently eroding
// throughput. testing.AllocsPerRun would divide by the run count and round
// down, hiding a few allocations per hundred intervals. See
// docs/PERFORMANCE.md for the discipline these guards enforce.
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
// exactly zero allocations over 100 simulated intervals with telemetry
// events disabled (no sinks attached — the default).
func TestHotPathZeroAlloc(t *testing.T) {
	const (
		warmup = 200 // intervals to fill every pool and scratch buffer
		runs   = 100 // intervals per measured window
	)
	for name, protocol := range hotPathProtocols() {
		t.Run(name, func(t *testing.T) {
			s := newHotPathSim(t, protocol)
			if err := s.Run(warmup); err != nil {
				t.Fatal(err)
			}
			if allocs := fewestMallocs(t, s, runs); allocs != 0 {
				t.Errorf("%s: %d allocs over %d steady-state intervals, want 0", name, allocs, runs)
			}
		})
	}
}

// TestHotPathZeroAllocConflictGraph extends the zero-allocation contract to
// the conflict-graph medium: the complete graph (which must ride the exact
// legacy code paths), a genuinely sparse two-clique graph (which exercises
// the per-neighborhood contention clock, the graph-mode protocol branches,
// and the medium's neighborhood busy counters), and 50 links in five
// disjoint 10-link cliques, where the contention clock's due tree spans 64
// leaves. DCF runs on the five cliques too: it re-Adds a link from its
// transmission's onDone callback. All must be allocation-free once warm,
// with observability disabled.
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
				if allocs := fewestMallocs(t, s, runs); allocs != 0 {
					t.Errorf("%s/%s: %d allocs over %d steady-state intervals, want 0",
						gName, pName, allocs, runs)
				}
			})
		}
	}
	for pName, protocol := range map[string]rtmac.Protocol{"dbdp": rtmac.DBDP(), "dcf": rtmac.DCF()} {
		t.Run("five-cliques-50/"+pName, func(t *testing.T) {
			s, err := rtmac.NewSimulation(cliqueConfig(t, 50, protocol, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(warmup); err != nil {
				t.Fatal(err)
			}
			if allocs := fewestMallocs(t, s, runs); allocs != 0 {
				t.Errorf("five-cliques-50/%s: %d allocs over %d steady-state intervals, want 0",
					pName, allocs, runs)
			}
		})
	}
}

// TestHotPathAllocBoundWithTelemetry extends the zero-allocation contract to
// a JSONL event stream: the instrumentation reuses scratch field maps and the
// stream encodes each event into its own reused line buffer (see
// docs/PERFORMANCE.md), so an interval with the stream attached allocates
// nothing either, counted exactly like the bare hot path.
func TestHotPathAllocBoundWithTelemetry(t *testing.T) {
	s := newHotPathSim(t, rtmac.DBDP())
	stream := s.StreamEvents(io.Discard)
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	before := stream.Count()
	const runs = 100
	if allocs := fewestMallocs(t, s, runs); allocs != 0 {
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

// fewestMallocs is the fewest heap allocations over three windows of runs
// single-interval Run calls on s, each counted exactly by mallocsDuring. The
// malloc counter is process-wide, so the runtime's own background work (GC
// workers, goroutine stacks) can land in one window; a per-interval
// allocation would show in all three.
func fewestMallocs(t *testing.T, s *rtmac.Simulation, runs int) uint64 {
	t.Helper()
	fewest := uint64(math.MaxUint64)
	for range 3 {
		fewest = min(fewest, mallocsDuring(runs, func() {
			if err := s.Run(1); err != nil {
				t.Fatal(err)
			}
		}))
	}
	return fewest
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
