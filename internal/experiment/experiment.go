// Package experiment defines the paper's evaluation scenarios (Section VI)
// and a harness that regenerates every data figure: total timely-throughput
// deficiency sweeps (Figs. 3, 4, 7, 8, 9, 10), the convergence comparison
// (Fig. 5), and the fixed-priority throughput profile (Fig. 6), plus the
// repository's beyond-paper experiments. Every figure declares its
// simulations as jobs, each an rtmac.Config with its series' rtmac.Protocol
// and seed, and runs them through one worker pool (runJobs). Each job builds
// an rtmac.Simulation and attaches its planes with the same Enable* calls a
// single run uses, so every RunOptions plane — monitor, watch engine,
// telemetry, events, progress — reaches every simulation.
//
// Absolute numbers come from this repository's simulator rather than the
// authors' ns-3 build, so the comparison target is the *shape* of each
// figure: who wins, by what rough factor, and where the knees fall.
package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"rtmac"
	"rtmac/internal/ledger"
	"rtmac/internal/stats"
	"rtmac/internal/telemetry"
	"rtmac/internal/watch"
)

// ProgressTracker receives figure- and job-level completion callbacks during
// a run. The HTTP observability plane implements it; implementations must be
// safe for concurrent use, because workers report completions from many
// goroutines.
type ProgressTracker interface {
	// FigureStarted announces a figure and how many simulation jobs it will
	// run. A figure with an unknown job count may report 0.
	FigureStarted(id, title string, totalJobs int)
	// JobCompleted records one finished simulation for the figure.
	JobCompleted(id string)
	// FigureFinished marks the figure complete.
	FigureFinished(id string)
}

// RunOptions tunes how much work a figure run performs. The zero value asks
// for the paper's native fidelity.
type RunOptions struct {
	// Seeds is the number of independent replications averaged per point
	// (default 3).
	Seeds int
	// IntervalScale scales each figure's native simulation length; 1 is the
	// paper's horizon (5000 intervals for video figures, 20000 for control
	// figures). Benchmarks and tests use smaller scales.
	IntervalScale float64
	// Workers bounds concurrent simulations (default: NumCPU).
	Workers int
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer
	// BaseSeed offsets every replication seed, for independent repetitions
	// of whole figures.
	BaseSeed uint64
	// SeedList, when non-empty, replaces the derived seed schedule with these
	// exact replication seeds (and overrides Seeds with its length). The
	// default schedule folds the global job index in, so two sweeps with
	// different replication counts never reuse seeds — which also means a
	// one-seed run's seed cannot be reproduced inside a two-seed run. An
	// explicit list restores that control, letting separately recorded runs
	// merge into exactly what one combined run would have produced (see the
	// run ledger and cmd/ledgerctl's TestLedgerFlow).
	SeedList []uint64
	// Monitor runs the strict invariant monitor inside every simulation: a
	// violation of the paper's structural guarantees fails the figure instead
	// of silently skewing its curves.
	Monitor bool
	// Tracker, when non-nil, receives figure/job completion callbacks; the
	// HTTP observability plane's tracker plugs in here.
	Tracker ProgressTracker
	// Telemetry, when non-nil, is shared by every simulated network; the
	// registry is safe for that concurrent use.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives every network's structured event stream
	// with its monitor violations and watch alerts (e.g. the observability
	// plane's SSE broker).
	Events telemetry.Sink
	// Recorder, when non-nil, captures every aggregated figure point as a
	// mergeable partial for the run ledger. A nil recorder costs nothing.
	Recorder *ledger.Recorder
	// Watch attaches the SLO conformance engine to every simulation. Alerts
	// never fail a figure — sweeps deliberately cross the capacity frontier —
	// but they are counted into WatchTally and the shared telemetry registry.
	Watch bool
	// WatchBudget is the deadline-miss burn-rate budget (0 selects the watch
	// package default).
	WatchBudget float64
	// WatchTally, when non-nil alongside Watch, accumulates alert counts
	// across every simulation in the run.
	WatchTally *watch.Tally
}

// syncWriter serializes writes so many workers can share one Progress
// destination without interleaving bytes mid-line.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (o RunOptions) fill() RunOptions {
	if len(o.SeedList) > 0 {
		o.Seeds = len(o.SeedList)
	}
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	if o.IntervalScale <= 0 {
		o.IntervalScale = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 0x5eed
	}
	if o.Progress != nil {
		if _, ok := o.Progress.(*syncWriter); !ok {
			o.Progress = &syncWriter{w: o.Progress}
		}
	}
	return o
}

// seedFor returns replication s's simulation seed for the job at jobIndex:
// the exact SeedList entry when one was given, otherwise the derived schedule
// (BaseSeed plus a 7919 stride per replication, offset by the job index so no
// two jobs of one sweep share a seed). Sweeps that key seeds on something
// other than a job index pass 0, preserving their historical schedules.
func (o RunOptions) seedFor(s, jobIndex int) uint64 {
	if len(o.SeedList) > 0 {
		return o.SeedList[s]
	}
	return o.BaseSeed + uint64(s)*7919 + uint64(jobIndex)
}

func (o RunOptions) scaled(native int) int {
	n := int(float64(native) * o.IntervalScale)
	if n < 10 {
		n = 10
	}
	return n
}

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Err, when non-nil, carries the standard error of each Y (multi-seed
	// sweeps).
	Err []float64
	// CI, when non-nil, carries the 95% confidence half-width of each Y.
	CI []float64
	// DelayP50/P95/P99, when non-nil, carry the delivery-delay quantiles in
	// microseconds at each point (mean across replications with deliveries).
	DelayP50 []float64
	DelayP95 []float64
	DelayP99 []float64
}

// addSummary appends one aggregated point to the series.
func (s *Series) addSummary(x float64, sum stats.PointSummary) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, sum.Mean)
	s.Err = append(s.Err, sum.StdErr)
	s.CI = append(s.CI, sum.CIHalf)
	s.DelayP50 = append(s.DelayP50, sum.DelayP50)
	s.DelayP95 = append(s.DelayP95, sum.DelayP95)
	s.DelayP99 = append(s.DelayP99, sum.DelayP99)
}

// Result is a regenerated figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Figure regenerates one of the paper's plots.
type Figure interface {
	// ID is the paper's figure number, e.g. "fig3".
	ID() string
	// Title describes the figure.
	Title() string
	// Run executes the sweep and returns the curves.
	Run(opts RunOptions) (*Result, error)
}

// curve is one series' policy: the label the figure prints next to the
// protocol it runs.
type curve struct {
	label    string
	protocol rtmac.Protocol
}

// labelled names each protocol's curve by the protocol's own label.
func labelled(protocols ...rtmac.Protocol) []curve {
	out := make([]curve, len(protocols))
	for i, p := range protocols {
		out[i] = curve{label: p.Label(), protocol: p}
	}
	return out
}

// job is one (sweep point, protocol, seed) simulation: cfg carries the
// point's network with the job's seed and protocol, and reduce folds the
// finished run into the figure's aggregate.
type job struct {
	key       string // progress and profile label, e.g. "<x>/<protocol>"
	cfg       rtmac.Config
	intervals int
	// delayBuckets, when positive, also records the run's delivery delays in
	// a histogram of that many buckets per deadline.
	delayBuckets int
	reduce       func(out runOut)
}

// runOut is everything one simulation yields to its reducer.
type runOut struct {
	sim   *rtmac.Simulation
	delay *rtmac.DelayQuantiles
	hist  *rtmac.Delay // nil unless the job asked for delayBuckets
}

// replication packages the run as one seed-tagged replication for the
// cross-seed aggregator.
func (o runOut) replication(seed uint64, value float64) stats.Replication {
	return stats.Replication{
		Seed:       seed,
		Value:      value,
		DelayP50:   o.delay.P50(),
		DelayP95:   o.delay.P95(),
		DelayP99:   o.delay.P99(),
		DelayCount: o.delay.Count(),
	}
}

// run builds the job's simulation with the planes opts ask for and runs it.
// Every run carries a delivery-delay sketch, plus the delay histogram when
// the job asks for one. opts.Monitor adds the strict invariant monitor,
// without its flight recorder, so the run fails at the end of the first
// violating interval; opts.Watch adds the watch engine, whose verdict is
// merged into opts.WatchTally. opts.Telemetry and opts.Events are shared by
// every run.
func (j job) run(opts RunOptions) (runOut, error) {
	cfg := j.cfg
	cfg.Registry, cfg.Events = opts.Telemetry, opts.Events
	s, err := rtmac.NewSimulation(cfg)
	if err != nil {
		return runOut{}, err
	}
	out := runOut{sim: s}
	if out.delay, err = s.EnableDelaySketch(); err != nil {
		return runOut{}, err
	}
	if j.delayBuckets > 0 {
		if out.hist, err = s.EnableDelayStats(j.delayBuckets); err != nil {
			return runOut{}, err
		}
	}
	if opts.Monitor {
		if _, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true, NoFlightRecorder: true}); err != nil {
			return runOut{}, err
		}
	}
	var w *rtmac.Watch
	if opts.Watch {
		if w, err = s.EnableWatch(rtmac.WatchConfig{Budget: opts.WatchBudget}); err != nil {
			return runOut{}, err
		}
	}
	if err := s.Run(j.intervals); err != nil {
		return runOut{}, err
	}
	if w != nil && opts.WatchTally != nil {
		opts.WatchTally.Merge(w.Count(), w.Firing(), w.ByDetector())
	}
	return out, nil
}

// runJobs executes jobs across a worker pool and is the only place figures
// simulate. Reduce callbacks run under a single mutex in completion order,
// so they can write shared aggregates without further locking; a figure
// whose fold depends on order stores each output in its job's own slot and
// folds after runJobs returns. The tracker (when set) sees the figure start
// with len(jobs), every job completion, and the figure finish; Progress
// writes go through the options' synchronized writer outside the reduce
// lock.
func runJobs(fig Figure, jobs []job, opts RunOptions) error {
	id := fig.ID()
	if opts.Tracker != nil {
		opts.Tracker.FigureStarted(id, fig.Title(), len(jobs))
		defer opts.Tracker.FigureFinished(id)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, opts.Workers)
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// Label the worker for the profiling plane: any CPU sample taken
			// while this job runs carries the figure, sweep point, and seed,
			// so `go tool pprof -tags` can answer "which figure is slow?".
			var out runOut
			var err error
			pprof.Do(context.Background(), pprof.Labels(
				"figure", id, "point", j.key, "seed", strconv.FormatUint(j.cfg.Seed, 10),
			), func(context.Context) {
				out, err = j.run(opts)
			})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", j.key, err)
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			j.reduce(out)
			mu.Unlock()
			if opts.Tracker != nil {
				opts.Tracker.JobCompleted(id)
			}
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "done %s seed=%d deficiency=%.4f\n",
					j.key, j.cfg.Seed, out.sim.TotalDeficiency())
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ciLevel is the confidence level figure aggregates report.
const ciLevel = 0.95

// sweepRange returns lo, lo+step, ..., hi (inclusive within rounding),
// with each value rounded to six decimals so accumulated float error never
// leaks into labels.
func sweepRange(lo, hi, step float64) []float64 {
	var xs []float64
	for x := lo; x <= hi+step/2; x += step {
		xs = append(xs, math.Round(x*1e6)/1e6)
	}
	return xs
}
