package rtmac_test

import (
	"fmt"
	"testing"

	"rtmac"
	"rtmac/internal/experiment"
	"rtmac/internal/perm"
	"rtmac/internal/sim"
)

// ---------------------------------------------------------------------------
// Figure benchmarks: one per data figure in the paper's evaluation. Each
// iteration regenerates the figure at a reduced horizon (the fidelity knob is
// IntervalScale; raise it toward 1 to approach the paper's exact setup — see
// cmd/figures for full-fidelity runs). Reported custom metrics carry the
// headline numbers so `go test -bench` output doubles as a results table:
// for sweeps, the end-of-sweep deficiency per protocol; for fig5, the final
// windowed throughput; for fig6, the top/bottom priority throughputs.
// ---------------------------------------------------------------------------

const benchScale = 0.02 // 100 video intervals / 400 control intervals

func benchFigure(b *testing.B, id string) {
	fig, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiment.RunOptions{Seeds: 1, IntervalScale: benchScale}
	var res *experiment.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.BaseSeed = uint64(i) + 1
		res, err = fig.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, s := range res.Series {
		if len(s.Y) == 0 {
			continue
		}
		b.ReportMetric(s.Y[len(s.Y)-1], sanitizeMetric(s.Label)+"_final")
	}
}

func sanitizeMetric(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func BenchmarkFig3SymmetricVideoSweep(b *testing.B)  { benchFigure(b, "fig3") }
func BenchmarkFig4VideoRatioSweep(b *testing.B)      { benchFigure(b, "fig4") }
func BenchmarkFig5Convergence(b *testing.B)          { benchFigure(b, "fig5") }
func BenchmarkFig6PriorityProfile(b *testing.B)      { benchFigure(b, "fig6") }
func BenchmarkFig7AsymmetricSweep(b *testing.B)      { benchFigure(b, "fig7") }
func BenchmarkFig8AsymmetricRatioSweep(b *testing.B) { benchFigure(b, "fig8") }
func BenchmarkFig9ControlSweep(b *testing.B)         { benchFigure(b, "fig9") }
func BenchmarkFig10ControlRatioSweep(b *testing.B)   { benchFigure(b, "fig10") }

// ---------------------------------------------------------------------------
// Protocol throughput benchmarks: simulated intervals per second for each
// policy on the paper's control scenario. These measure the simulator, not
// the wireless channel; they are the numbers to watch when optimizing.
// ---------------------------------------------------------------------------

func benchProtocolIntervals(b *testing.B, protocol rtmac.Protocol) {
	links := make([]rtmac.Link, 10)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     1,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: protocol,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := s.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkIntervalDBDP(b *testing.B)  { benchProtocolIntervals(b, rtmac.DBDP()) }
func BenchmarkIntervalLDF(b *testing.B)   { benchProtocolIntervals(b, rtmac.LDF()) }
func BenchmarkIntervalFCSMA(b *testing.B) { benchProtocolIntervals(b, rtmac.FCSMA()) }
func BenchmarkIntervalDCF(b *testing.B)   { benchProtocolIntervals(b, rtmac.DCF()) }

// BenchmarkIntervalConflictGraph prices the spatial-reuse medium: the same
// control workload as BenchmarkIntervalDBDP, but on a two-clique conflict
// graph so the per-neighborhood contention clock, the local DP backoff ranks,
// and the medium's neighborhood busy counters are all on the hot path.
// Compare against BenchmarkIntervalDBDP for the graph-mode overhead.
func BenchmarkIntervalConflictGraph(b *testing.B) {
	conflicts, err := rtmac.CliqueConflicts(10, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	if err != nil {
		b.Fatal(err)
	}
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
		Protocol:  rtmac.DBDP(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := s.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIntervalCliques prices graph-mode contention as the network
// grows: DB-DP on the control workload over N links split into disjoint
// 10-link cliques (N = 10 would be one clique, the complete graph, which
// takes the single-grid path). With per-link costs flat in N, ns/interval
// grows linearly; the contention clock's due tree keeps each backoff
// transition at O(log N).
func BenchmarkIntervalCliques(b *testing.B) {
	for _, n := range []int{20, 50, 200} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			s, err := rtmac.NewSimulation(cliqueConfig(b, n, rtmac.DBDP(), 1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkIntervalDBDPLargeNetwork stresses the video scenario with 20
// bursty links per interval.
func BenchmarkIntervalDBDPLargeNetwork(b *testing.B) {
	links := make([]rtmac.Link, 20)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustVideoArrivals(0.55),
			DeliveryRatio: 0.9,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     1,
		Profile:  rtmac.VideoProfile(),
		Links:    links,
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := s.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks: design choices DESIGN.md calls out. Each reports the
// total deficiency reached on a fixed workload as a custom metric, so
// comparing variants is a single -bench run.
// ---------------------------------------------------------------------------

func benchAblation(b *testing.B, protocol rtmac.Protocol) {
	const intervals = 400
	var deficiency float64
	for i := 0; i < b.N; i++ {
		links := make([]rtmac.Link, 20)
		for j := range links {
			links[j] = rtmac.Link{
				SuccessProb:   0.7,
				Arrivals:      rtmac.MustVideoArrivals(0.55),
				DeliveryRatio: 0.9,
			}
		}
		s, err := rtmac.NewSimulation(rtmac.Config{
			Seed:     uint64(i) + 1,
			Profile:  rtmac.VideoProfile(),
			Links:    links,
			Protocol: protocol,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(intervals); err != nil {
			b.Fatal(err)
		}
		deficiency = s.TotalDeficiency()
	}
	b.ReportMetric(deficiency, "deficiency")
}

// Influence-function choice (paper uses log; identity recovers LDF-style
// weights; sqrt is an intermediate).
func BenchmarkAblationInfluencePaperLog(b *testing.B) {
	benchAblation(b, rtmac.DBDP())
}

func BenchmarkAblationInfluenceIdentity(b *testing.B) {
	benchAblation(b, rtmac.DBDP(rtmac.WithInfluence(rtmac.IdentityInfluence(), 10)))
}

func BenchmarkAblationInfluenceSqrt(b *testing.B) {
	f, err := rtmac.PowerInfluence(0.5)
	if err != nil {
		b.Fatal(err)
	}
	benchAblation(b, rtmac.DBDP(rtmac.WithInfluence(f, 10)))
}

// Glauber constant R (Eq. 14): paper uses 10.
func BenchmarkAblationGlauberR1(b *testing.B) {
	benchAblation(b, rtmac.DBDP(rtmac.WithInfluence(rtmac.PaperInfluence(), 1)))
}

func BenchmarkAblationGlauberR100(b *testing.B) {
	benchAblation(b, rtmac.DBDP(rtmac.WithInfluence(rtmac.PaperInfluence(), 100)))
}

// Multi-pair swapping (Remark 6): more pairs mix the priority chain faster
// at slightly higher backoff overhead.
func BenchmarkAblationSwapPairs1(b *testing.B) { benchAblation(b, rtmac.DBDP()) }
func BenchmarkAblationSwapPairs3(b *testing.B) {
	benchAblation(b, rtmac.DBDP(rtmac.WithSwapPairs(3)))
}
func BenchmarkAblationSwapPairs6(b *testing.B) {
	benchAblation(b, rtmac.DBDP(rtmac.WithSwapPairs(6)))
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkEngineScheduleAndFire(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleAt(sim.Time(i), fn)
		e.Step()
	}
}

func BenchmarkEngineTimerCancel(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.ScheduleAt(sim.Time(i)+1000, fn)
		e.Cancel(t)
	}
}

func BenchmarkStationaryDistributionN6(b *testing.B) {
	mu := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perm.StationaryFromMu(mu); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPermutationRankUnrank(b *testing.B) {
	p := perm.Identity(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Rank()
		q, err := perm.Unrank(8, r)
		if err != nil {
			b.Fatal(err)
		}
		p = q
	}
}

// Example of using the benchmark harness programmatically.
func ExampleNewSimulation() {
	links := make([]rtmac.Link, 4)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   1.0,
			Arrivals:      rtmac.FixedArrivals(1),
			DeliveryRatio: 1.0,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     1,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		panic(err)
	}
	if err := s.Run(1000); err != nil {
		panic(err)
	}
	fmt.Printf("deficiency: %.4f collisions: %d\n",
		s.TotalDeficiency(), s.Report().Channel.Collisions)
	// Output:
	// deficiency: 0.0000 collisions: 0
}

// Baseline comparison bench: the four alternatives on the identical video
// workload (frame-based CSMA shows the open-loop adaptivity penalty the
// paper's introduction describes; DCF shows the collision penalty).
func BenchmarkAblationBaselineDBDP(b *testing.B)      { benchAblation(b, rtmac.DBDP()) }
func BenchmarkAblationBaselineLDF(b *testing.B)       { benchAblation(b, rtmac.LDF()) }
func BenchmarkAblationBaselineFCSMA(b *testing.B)     { benchAblation(b, rtmac.FCSMA()) }
func BenchmarkAblationBaselineFrameCSMA(b *testing.B) { benchAblation(b, rtmac.FrameCSMA()) }
func BenchmarkAblationBaselineDCF(b *testing.B)       { benchAblation(b, rtmac.DCF()) }
