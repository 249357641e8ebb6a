package experiment

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"rtmac"
	"rtmac/internal/telemetry"
	"rtmac/internal/watch"
)

// fastOpts keeps the figure sweeps affordable in CI while preserving shape:
// ~4 % of the paper's horizon, single replication.
func fastOpts() RunOptions {
	return RunOptions{Seeds: 1, IntervalScale: 0.04}
}

func findSeries(t *testing.T, r *Result, label string) Series {
	t.Helper()
	for _, s := range r.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q (have %v)", r.ID, label, labels(r))
	return Series{}
}

func labels(r *Result) []string {
	var out []string
	for _, s := range r.Series {
		out = append(out, s.Label)
	}
	return out
}

func last(s Series) float64 { return s.Y[len(s.Y)-1] }

func first(s Series) float64 { return s.Y[0] }

func TestByID(t *testing.T) {
	for _, f := range All() {
		got, err := ByID(f.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != f.ID() {
			t.Fatalf("ByID(%s) returned %s", f.ID(), got.ID())
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if len(All()) != 8 {
		t.Fatalf("All() returned %d figures, want 8 (the paper's data figures)", len(All()))
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := Fig3().Run(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	dbdp := findSeries(t, res, "DB-DP")
	ldfS := findSeries(t, res, "LDF")
	fcsmaS := findSeries(t, res, "FCSMA")
	// At the lightest load every policy except FCSMA is near zero, and at
	// the heaviest load FCSMA is far worse than both debt policies.
	if first(ldfS) > 0.3 || first(dbdp) > 0.6 {
		t.Fatalf("light-load deficiencies too high: LDF %v DB-DP %v", first(ldfS), first(dbdp))
	}
	// At peak load everything is infeasible, so transients dominate the
	// short test horizon; FCSMA must still be clearly worst.
	if last(fcsmaS) < 1.5*last(dbdp) {
		t.Fatalf("FCSMA (%v) not clearly worse than DB-DP (%v) at peak load",
			last(fcsmaS), last(dbdp))
	}
	// At the mid-load point (α = 0.55, feasible for the debt policies but
	// beyond FCSMA's knee) the structural gap is unambiguous.
	mid := len(dbdp.X) / 2
	if fcsmaS.Y[mid] < dbdp.Y[mid]+1.0 {
		t.Fatalf("at α=%v FCSMA (%v) not clearly above DB-DP (%v)",
			dbdp.X[mid], fcsmaS.Y[mid], dbdp.Y[mid])
	}
	// Deficiency grows with load for every policy (allowing small noise).
	for _, s := range res.Series {
		if last(s) < first(s)-0.05 {
			t.Fatalf("series %s deficiency decreased with load: %v -> %v",
				s.Label, first(s), last(s))
		}
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4().Run(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	dbdp := findSeries(t, res, "DB-DP")
	fcsmaS := findSeries(t, res, "FCSMA")
	// FCSMA is dominated at every requested delivery ratio.
	for i := range dbdp.X {
		if fcsmaS.Y[i] < dbdp.Y[i]-0.05 {
			t.Fatalf("at ratio %v FCSMA (%v) beats DB-DP (%v)",
				dbdp.X[i], fcsmaS.Y[i], dbdp.Y[i])
		}
	}
}

func TestFig5Shape(t *testing.T) {
	// Convergence needs a longer horizon than the sweep tests; fig5 is only
	// two simulations, so 20 % scale stays cheap.
	res, err := Fig5().Run(RunOptions{Seeds: 1, IntervalScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("fig5 has %d series, want 2", len(res.Series))
	}
	// Both policies must bring the watched link's instantaneous throughput
	// close to its target (0.93·3.5·0.55 ≈ 1.79) by the end of the horizon;
	// average the last five windows to damp arrival noise.
	const target = 0.93 * 3.5 * 0.55
	for _, s := range res.Series {
		if len(s.Y) < 10 {
			t.Fatalf("series %s has only %d checkpoints", s.Label, len(s.Y))
		}
		tail := 0.0
		for _, y := range s.Y[len(s.Y)-5:] {
			tail += y
		}
		tail /= 5
		if tail < 0.85*target {
			t.Fatalf("series %s converged to %v, want ≥ 85%% of target %v", s.Label, tail, target)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6().Run(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[0]
	if len(s.X) != 20 {
		t.Fatalf("fig6 has %d priority points, want 20", len(s.X))
	}
	// Throughput decreases with priority index overall: the top-priority
	// link clearly beats the bottom one, and the bottom link is non-zero
	// (the paper's no-starvation observation).
	if s.Y[0] <= s.Y[19] {
		t.Fatalf("priority 1 throughput %v not above priority 20's %v", s.Y[0], s.Y[19])
	}
	if s.Y[19] <= 0 {
		t.Fatal("lowest-priority link completely starved")
	}
	// The top priority link gets essentially its full arrival rate 2.1.
	if s.Y[0] < 1.8 {
		t.Fatalf("top-priority throughput %v, want ≈ 2.1", s.Y[0])
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7().Run(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	f1 := findSeries(t, res, "FCSMA group1")
	f2 := findSeries(t, res, "FCSMA group2")
	// The paper's saturation effect: group 1 suffers much more than group 2
	// under FCSMA at the heaviest load.
	if last(f1) < 1.5*last(f2) {
		t.Fatalf("FCSMA group1 (%v) not clearly worse than group2 (%v)", last(f1), last(f2))
	}
	// DB-DP tracks LDF on both groups within a modest absolute gap at the
	// lightest load.
	d1 := findSeries(t, res, "DB-DP group1")
	l1 := findSeries(t, res, "LDF group1")
	if first(d1)-first(l1) > 0.5 {
		t.Fatalf("DB-DP group1 light-load gap vs LDF too large: %v vs %v", first(d1), first(l1))
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9().Run(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	dbdp := findSeries(t, res, "DB-DP")
	fcsmaS := findSeries(t, res, "FCSMA")
	if first(dbdp) > 0.2 {
		t.Fatalf("DB-DP deficiency %v at λ=0.6, want near zero", first(dbdp))
	}
	if last(fcsmaS) < last(dbdp) {
		t.Fatalf("FCSMA (%v) beats DB-DP (%v) at peak control load", last(fcsmaS), last(dbdp))
	}
}

func TestFig10Runs(t *testing.T) {
	res, err := Fig10().Run(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("fig10 has %d series, want 3", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.X) != 6 {
			t.Fatalf("series %s has %d points, want 6", s.Label, len(s.X))
		}
	}
}

func TestFig8Runs(t *testing.T) {
	res, err := Fig8().Run(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("fig8 has %d series, want 6 (3 protocols × 2 groups)", len(res.Series))
	}
}

func TestRenderCSV(t *testing.T) {
	r := &Result{
		ID: "figX", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "A", X: []float64{1, 2}, Y: []float64{0.5, 0.25}}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	want := "figure,series,x,y,yerr,ci95,delay_p50_us,delay_p95_us,delay_p99_us\n" +
		"figX,A,1,0.5,,,,,\nfigX,A,2,0.25,,,,,\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
	// With error bars, confidence intervals and delay quantiles.
	r.Series[0].Err = []float64{0.1, 0.2}
	r.Series[0].CI = []float64{0.196, 0.392}
	r.Series[0].DelayP50 = []float64{500, 600}
	r.Series[0].DelayP95 = []float64{1500, 1600}
	r.Series[0].DelayP99 = []float64{1900, 1950}
	buf.Reset()
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "figX,A,1,0.5,0.1,0.196,500,1500,1900") {
		t.Fatalf("CSV missing aggregate columns: %q", buf.String())
	}
}

func TestRenderTable(t *testing.T) {
	r := &Result{
		ID: "figX", Title: "demo", XLabel: "alpha", YLabel: "deficiency",
		Series: []Series{
			{Label: "A", X: []float64{0.4, 0.5}, Y: []float64{0, 1}},
			{Label: "B", X: []float64{0.4, 0.5}, Y: []float64{2, 3}},
		},
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"alpha", "A", "B", "0.4", "0.5", "1.0000", "3.0000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	empty := &Result{ID: "e"}
	if err := WriteTable(&buf, empty); err == nil {
		t.Fatal("empty result rendered")
	}
}

func TestRenderASCIIChart(t *testing.T) {
	r := &Result{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "A", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}}},
	}
	var buf bytes.Buffer
	if err := WriteASCIIChart(&buf, r, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "[*]=A") {
		t.Fatalf("chart missing glyphs:\n%s", out)
	}
	empty := &Result{ID: "e"}
	if err := WriteASCIIChart(&buf, empty, 40, 10); err == nil {
		t.Fatal("empty result charted")
	}
}

func TestSweepRange(t *testing.T) {
	xs := sweepRange(0.40, 0.70, 0.05)
	if len(xs) != 7 || xs[0] != 0.40 || xs[6] != 0.70 {
		t.Fatalf("sweepRange = %v", xs)
	}
}

func TestRunOptionsFill(t *testing.T) {
	o := RunOptions{}.fill()
	if o.Seeds != 3 || o.IntervalScale != 1 || o.Workers < 1 || o.BaseSeed == 0 {
		t.Fatalf("fill() = %+v", o)
	}
	if got := (RunOptions{IntervalScale: 0.001}).scaled(5000); got != 10 {
		t.Fatalf("scaled floor = %d, want 10", got)
	}
}

func TestExtendedRegistry(t *testing.T) {
	ext := Extended()
	if len(ext) != 16 {
		t.Fatalf("Extended() returned %d figures, want 16", len(ext))
	}
	for _, id := range []string{"extra-baselines", "extra-slottime", "extra-emptycost",
		"extra-swappairs", "extra-fading", "extra-correlated", "extra-learning"} {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
}

func TestExtraSlotTimeShape(t *testing.T) {
	res, err := ExtraSlotTime().Run(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[0]
	if len(s.X) != 6 {
		t.Fatalf("got %d points", len(s.X))
	}
	// Longer slots burn more capacity: deficiency at 72 µs slots must not
	// be smaller than at 1 µs slots.
	if s.Y[len(s.Y)-1] < s.Y[0]-0.05 {
		t.Fatalf("deficiency fell as slots grew: %v -> %v", s.Y[0], s.Y[len(s.Y)-1])
	}
}

func TestExtraEmptyCostRuns(t *testing.T) {
	res, err := ExtraEmptyCost().Run(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series[0].X) != 4 {
		t.Fatalf("got %d points", len(res.Series[0].X))
	}
}

func TestExtraSwapPairsShape(t *testing.T) {
	res, err := ExtraSwapPairs().Run(RunOptions{Seeds: 1, IntervalScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(res.Series))
	}
	// More pairs cannot converge slower in the long run: compare the mean of
	// the second half of the 1-pair and 6-pair curves with slack for noise.
	half := func(s Series) float64 {
		ys := s.Y[len(s.Y)/2:]
		sum := 0.0
		for _, y := range ys {
			sum += y
		}
		return sum / float64(len(ys))
	}
	one, six := half(res.Series[0]), half(res.Series[2])
	if six < one-0.4 {
		t.Fatalf("6 pairs clearly worse than 1 pair: %v vs %v", six, one)
	}
}

func TestExtraBaselinesRuns(t *testing.T) {
	res, err := ExtraBaselines().Run(RunOptions{Seeds: 1, IntervalScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("got %d series, want 5", len(res.Series))
	}
}

func TestExtraFadingShape(t *testing.T) {
	res, err := ExtraFading().Run(RunOptions{Seeds: 1, IntervalScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	dbdp := findSeries(t, res, "DB-DP")
	ldfS := findSeries(t, res, "LDF")
	// At the lightest load both must essentially fulfill despite fading
	// (regime transients leave a little residual at this horizon), and the
	// load sweep must end above where it starts for both.
	if first(dbdp) > 0.7 || first(ldfS) > 0.5 {
		t.Fatalf("light-load fading deficiencies: DB-DP %v, LDF %v", first(dbdp), first(ldfS))
	}
	if last(dbdp) < first(dbdp) || last(ldfS) < first(ldfS) {
		t.Fatalf("deficiency not increasing with load under fading")
	}
}

func TestExtraCorrelatedShape(t *testing.T) {
	// DB-DP's residual under correlated arrivals is a convergence
	// transient (0.94 at K=1000 -> 0.04 at K=5000 -> 0.01 at K=15000), so
	// this check runs the paper's full horizon.
	res, err := ExtraCorrelated().Run(RunOptions{Seeds: 1, IntervalScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	dbdp := findSeries(t, res, "DB-DP")
	ldfS := findSeries(t, res, "LDF")
	if first(dbdp) > 0.1 || first(ldfS) > 0.1 {
		t.Fatalf("light-load correlated deficiencies: DB-DP %v, LDF %v", first(dbdp), first(ldfS))
	}
	// At the infeasible end both policies are equally limited.
	if diff := last(dbdp) - last(ldfS); diff > 0.5 || diff < -0.5 {
		t.Fatalf("infeasible-end gap %v between DB-DP (%v) and LDF (%v)",
			diff, last(dbdp), last(ldfS))
	}
}

func TestExtraLearningShape(t *testing.T) {
	res, err := ExtraLearning().Run(RunOptions{Seeds: 1, IntervalScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	oracle := findSeries(t, res, "DB-DP")
	learned := findSeries(t, res, "DB-DP (learned p)")
	// Learning must not cost much anywhere on the sweep: the estimator
	// converges within the first few hundred intervals.
	for i := range oracle.X {
		if learned.Y[i] > oracle.Y[i]+0.6 {
			t.Fatalf("at alpha*=%v learned %v far above oracle %v",
				oracle.X[i], learned.Y[i], oracle.Y[i])
		}
	}
}

func TestWriteSVG(t *testing.T) {
	r := &Result{
		ID: "figX", Title: "demo <chart>", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "A&B", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}, Err: []float64{0.1, 0.2, 0.3}},
			{Label: "C", X: []float64{0, 1, 2}, Y: []float64{2, 2, 2}},
		},
	}
	var buf bytes.Buffer
	if err := WriteSVG(&buf, r, 640, 400); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "A&amp;B", "demo &lt;chart&gt;", "<path", "<circle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	if err := WriteSVG(&buf, &Result{ID: "e"}, 640, 400); err == nil {
		t.Fatal("empty result rendered")
	}
}

func TestWriteHTMLReport(t *testing.T) {
	r1 := &Result{
		ID: "fig3", Title: "first", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "A", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	r2 := &Result{
		ID: "fig4", Title: "second", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "B", X: []float64{1, 2}, Y: []float64{5, 6}}},
	}
	var buf bytes.Buffer
	if err := WriteHTMLReport(&buf, []*Result{r1, r2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "first", "second", "<svg", "<table>", "5.0000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
	if err := WriteHTMLReport(&buf, nil); err == nil {
		t.Fatal("empty report rendered")
	}
}

func TestExtraDelayShape(t *testing.T) {
	res, err := ExtraDelay().Run(RunOptions{Seeds: 1, IntervalScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("got %d series, want 6 (3 protocols x 2 percentiles)", len(res.Series))
	}
	for _, s := range res.Series {
		for i, y := range s.Y {
			if y <= 0 || y > 1 {
				t.Fatalf("series %s point %d: delay fraction %v outside (0, 1]", s.Label, i, y)
			}
		}
	}
	// p99 dominates p50 for every protocol at every load.
	for pi := 0; pi < len(res.Series); pi += 2 {
		p50, p99 := res.Series[pi], res.Series[pi+1]
		for i := range p50.Y {
			if p99.Y[i] < p50.Y[i] {
				t.Fatalf("%s: p99 %v below p50 %v", p50.Label, p99.Y[i], p50.Y[i])
			}
		}
	}
}

func TestSweepPropagatesBuildErrors(t *testing.T) {
	// A NaN constant µ passes DBDP() but fails the protocol's build.
	broken := []curve{{label: "broken", protocol: rtmac.DBDP(rtmac.WithConstantMu(math.NaN()))}}
	control := func(float64) (rtmac.Config, error) { return controlConfig(0.5, 0.9) }
	fig := &sweepFigure{id: "t", xs: []float64{0.5}, horizon: 10, build: control, curves: broken}
	if _, err := fig.Run(RunOptions{}); err == nil {
		t.Fatal("broken protocol build did not propagate")
	}
	fig.groups = []linkGroup{{"g", []int{0}}}
	if _, err := fig.Run(RunOptions{}); err == nil {
		t.Fatal("broken protocol build did not propagate through group sweep")
	}
	fig = &sweepFigure{id: "t", xs: []float64{0.5}, horizon: 10, curves: labelled(rtmac.LDF()),
		build: func(float64) (rtmac.Config, error) { return rtmac.Config{}, fmt.Errorf("bad network") }}
	if _, err := fig.Run(RunOptions{}); err == nil {
		t.Fatal("network build error not propagated")
	}
}

func TestRenderTableWithCIAndDelay(t *testing.T) {
	r := &Result{
		ID: "figX", Title: "demo", XLabel: "alpha", YLabel: "deficiency",
		Series: []Series{{
			Label: "A", X: []float64{0.4}, Y: []float64{1.5},
			Err: []float64{0.1}, CI: []float64{0.196},
			DelayP50: []float64{500}, DelayP95: []float64{1500}, DelayP99: []float64{1900},
		}},
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"1.5000 ±0.1960", "delivery delay quantiles",
		"p50 500..500", "p95 1500..1500", "p99 1900..1900"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestProgressWriterConcurrent hammers the synchronized Progress writer from
// many goroutines; run with -race. Every written line must come out intact,
// never interleaved mid-line.
func TestProgressWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	opts := RunOptions{Progress: &buf}.fill()
	if opts.fill().Progress != opts.Progress {
		t.Fatal("fill re-wrapped an already synchronized writer")
	}
	const workers, lines = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				fmt.Fprintf(opts.Progress, "done worker%d line=%d deficiency=0.1234\n", w, i)
			}
		}()
	}
	wg.Wait()
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != workers*lines {
		t.Fatalf("%d lines, want %d", len(got), workers*lines)
	}
	for _, line := range got {
		if !strings.HasPrefix(line, "done worker") || !strings.HasSuffix(line, "deficiency=0.1234") {
			t.Fatalf("interleaved line %q", line)
		}
	}
}

// countingTracker records callbacks for tracker-threading tests.
type countingTracker struct {
	mu       sync.Mutex
	started  map[string]int
	done     map[string]int
	finished map[string]bool
}

func newCountingTracker() *countingTracker {
	return &countingTracker{started: map[string]int{}, done: map[string]int{}, finished: map[string]bool{}}
}

func (c *countingTracker) FigureStarted(id, title string, total int) {
	c.mu.Lock()
	c.started[id] = total
	c.mu.Unlock()
}

func (c *countingTracker) JobCompleted(id string) {
	c.mu.Lock()
	c.done[id]++
	c.mu.Unlock()
}

func (c *countingTracker) FigureFinished(id string) {
	c.mu.Lock()
	c.finished[id] = true
	c.mu.Unlock()
}

func TestSweepReportsProgressToTracker(t *testing.T) {
	tr := newCountingTracker()
	opts := fastOpts()
	opts.Seeds = 2
	opts.Tracker = tr
	res, err := Fig3().Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Series[0].X) * len(res.Series) * opts.Seeds
	if tr.started["fig3"] != want {
		t.Fatalf("FigureStarted total %d, want %d", tr.started["fig3"], want)
	}
	if tr.done["fig3"] != want {
		t.Fatalf("JobCompleted %d, want %d", tr.done["fig3"], want)
	}
	if !tr.finished["fig3"] {
		t.Fatal("FigureFinished not called")
	}
}

func TestSweepAggregatesDelayAndCI(t *testing.T) {
	opts := fastOpts()
	opts.Seeds = 2
	res, err := Fig3().Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if len(s.CI) != len(s.Y) || len(s.DelayP50) != len(s.Y) {
			t.Fatalf("%s: aggregate columns missing (ci %d delay %d y %d)",
				s.Label, len(s.CI), len(s.DelayP50), len(s.Y))
		}
		for i := range s.Y {
			if s.CI[i] < 0 {
				t.Fatalf("%s: negative CI at %d", s.Label, i)
			}
			if s.DelayP50[i] > s.DelayP95[i] || s.DelayP95[i] > s.DelayP99[i] {
				t.Fatalf("%s: quantiles out of order at x=%g: %v %v %v",
					s.Label, s.X[i], s.DelayP50[i], s.DelayP95[i], s.DelayP99[i])
			}
			// Delays are bounded by the interval length (deadline).
			if s.DelayP99[i] <= 0 || s.DelayP99[i] > 20000 {
				t.Fatalf("%s: implausible p99 delay %v µs", s.Label, s.DelayP99[i])
			}
		}
	}
}

// countingSink counts the events a run streams to RunOptions.Events.
type countingSink struct {
	mu sync.Mutex
	n  int
}

func (c *countingSink) Emit(telemetry.Event) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// TestObservationPlanesReachEveryFigure runs every figure with the strict
// monitor, the watch engine, an event sink and one shared telemetry registry,
// and requires each plane to have ridden along in every simulation the
// figure announced: one watch tally per job, the monitor's violation counter
// registered, and a non-empty event stream. A figure that simulated outside
// the shared runner would skip them silently.
func TestObservationPlanesReachEveryFigure(t *testing.T) {
	for _, fig := range Extended() {
		fig := fig
		t.Run(fig.ID(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tally := &watch.Tally{}
			tr := newCountingTracker()
			events := &countingSink{}
			_, err := fig.Run(RunOptions{
				Seeds:         2,
				IntervalScale: 0.01,
				Workers:       2,
				Monitor:       true,
				Watch:         true,
				WatchTally:    tally,
				Telemetry:     reg,
				Events:        events,
				Tracker:       tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs := tr.started[fig.ID()]
			if jobs == 0 || tally.Runs() != int64(jobs) {
				t.Fatalf("watch tallied %d runs, FigureStarted announced %d jobs", tally.Runs(), jobs)
			}
			if tr.done[fig.ID()] != jobs {
				t.Fatalf("JobCompleted %d times, FigureStarted announced %d jobs", tr.done[fig.ID()], jobs)
			}
			if !slices.Contains(reg.Names(), "rtmac_monitor_violations_total") {
				t.Fatalf("shared registry lacks rtmac_monitor_violations_total: %v", reg.Names())
			}
			if events.n == 0 {
				t.Fatal("no events reached RunOptions.Events")
			}
		})
	}
}
