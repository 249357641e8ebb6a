// Package experiment defines the paper's evaluation scenarios (Section VI)
// and a harness that regenerates every data figure: total timely-throughput
// deficiency sweeps (Figs. 3, 4, 7, 8, 9, 10), the convergence comparison
// (Fig. 5), and the fixed-priority throughput profile (Fig. 6), plus the
// repository's beyond-paper experiments. Every figure declares its
// simulations as jobs and runs them through one worker pool (runJobs, which
// alone calls runOne), so every RunOptions plane — monitor, watch engine,
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

	"rtmac/internal/arrival"
	"rtmac/internal/core"
	"rtmac/internal/ledger"
	"rtmac/internal/mac"
	"rtmac/internal/mac/dcf"
	"rtmac/internal/mac/fcsma"
	"rtmac/internal/mac/framecsma"
	"rtmac/internal/mac/ldf"
	"rtmac/internal/medium"
	"rtmac/internal/metrics"
	"rtmac/internal/monitor"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
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
	// (e.g. the observability plane's SSE broker).
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

// protocolSpec names one policy and knows how to build a fresh instance.
// collisionFree and swapPairs parameterize the invariant monitor when
// RunOptions.Monitor is set.
type protocolSpec struct {
	label         string
	build         func(n int) (mac.Protocol, error)
	collisionFree bool
	swapPairs     int
}

func dbdpSpec() protocolSpec {
	return protocolSpec{label: "DB-DP", collisionFree: true, build: func(n int) (mac.Protocol, error) {
		return core.NewDBDP(n)
	}}
}

func ldfSpec() protocolSpec {
	return protocolSpec{label: "LDF", collisionFree: true, build: func(n int) (mac.Protocol, error) {
		return ldf.NewLDF(), nil
	}}
}

func fcsmaSpec() protocolSpec {
	return protocolSpec{label: "FCSMA", build: func(n int) (mac.Protocol, error) {
		return fcsma.New(fcsma.DefaultConfig())
	}}
}

func dcfSpec() protocolSpec {
	return protocolSpec{label: "DCF", build: func(n int) (mac.Protocol, error) {
		return dcf.New(n, dcf.DefaultConfig())
	}}
}

func framecsmaSpec() protocolSpec {
	return protocolSpec{label: "Frame-CSMA", collisionFree: true, build: func(n int) (mac.Protocol, error) {
		return framecsma.New(framecsma.DefaultConfig())
	}}
}

// scenario is one fully specified network instance.
type scenario struct {
	profile     phy.Profile
	successProb []float64
	// channel, when set, replaces successProb with a time-varying channel
	// model bound to each network's engine.
	channel     func(eng *sim.Engine, links int) (medium.Model, error)
	arrivals    arrival.VectorProcess
	required    []float64
	intervals   int
	seriesEvery int
	// delayBuckets, when positive, also records each run's delivery delays
	// in a histogram of that many buckets per deadline.
	delayBuckets int
}

// runOut is everything one simulation yields to its reducer.
type runOut struct {
	col   *metrics.Collector
	delay *metrics.DelaySketch
	hist  *metrics.DelayStats // nil unless the scenario asked for delayBuckets
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

// runOne simulates a scenario under a protocol and returns the collector, a
// delivery-delay sketch and, when the scenario asks for one, a delay
// histogram. With opts.Monitor, the strict invariant monitor
// rides along and the run fails at the end of the first violating interval.
// opts.Telemetry and opts.Events, when set, are attached to the network.
func runOne(sc scenario, spec protocolSpec, seed uint64, opts RunOptions) (runOut, error) {
	links := len(sc.required)
	prot, err := spec.build(links)
	if err != nil {
		return runOut{}, fmt.Errorf("experiment: building %s: %w", spec.label, err)
	}
	var colOpts []metrics.Option
	if sc.seriesEvery > 0 {
		colOpts = append(colOpts, metrics.WithSeries(sc.seriesEvery))
	}
	col, err := metrics.NewCollector(sc.required, colOpts...)
	if err != nil {
		return runOut{}, err
	}
	nw, err := mac.NewNetwork(mac.NetworkConfig{
		Seed:           seed,
		Profile:        sc.profile,
		SuccessProb:    sc.successProb,
		ChannelFactory: sc.channel,
		Arrivals:       sc.arrivals,
		Required:       sc.required,
		Protocol:       prot,
		Observers:      []mac.Observer{col},
		Telemetry:      opts.Telemetry,
		Events:         opts.Events,
	})
	if err != nil {
		return runOut{}, err
	}
	out := runOut{col: col}
	if out.delay, err = metrics.NewDelaySketch(sc.profile.Interval); err != nil {
		return runOut{}, err
	}
	nw.AddProbe(out.delay)
	if sc.delayBuckets > 0 {
		if out.hist, err = metrics.NewDelayStats(sc.profile.Interval, sc.delayBuckets); err != nil {
			return runOut{}, err
		}
		nw.AddProbe(out.hist)
	}
	// The monitor reads typed records as a probe; the watch engine reads the
	// event stream alongside whatever external stream the caller attached.
	if opts.Monitor {
		mon, err := monitor.New(monitor.Config{
			Links:         links,
			Interval:      sc.profile.Interval,
			CollisionFree: spec.collisionFree,
			SwapPairs:     spec.swapPairs,
			Strict:        true,
			Registry:      nw.Telemetry(),
		})
		if err != nil {
			return runOut{}, fmt.Errorf("experiment: %s: %w", spec.label, err)
		}
		nw.AddProbe(mon)
		nw.SetIntervalCheck(mon.Err)
	}
	var eng *watch.Engine
	if opts.Watch {
		eng, err = watch.New(watch.Config{
			Links:    links,
			Required: sc.required,
			Budget:   opts.WatchBudget,
			Registry: nw.Telemetry(),
			Output:   opts.Events, // alerts join the external stream, if any
		})
		if err != nil {
			return runOut{}, fmt.Errorf("experiment: %s: %w", spec.label, err)
		}
		if opts.Events != nil {
			nw.SetEventSink(telemetry.MultiSink{eng, opts.Events})
		} else {
			nw.SetEventSink(eng)
		}
	}
	if err := nw.Run(sc.intervals); err != nil {
		return runOut{}, err
	}
	if eng != nil && opts.WatchTally != nil {
		opts.WatchTally.Merge(eng)
	}
	return out, nil
}

// job is one (sweep point, protocol, seed) simulation; reduce merges its
// output into the figure's aggregate.
type job struct {
	key    string // progress and profile label, e.g. "<x>/<protocol>"
	spec   protocolSpec
	sc     scenario
	seed   uint64
	reduce func(out runOut)
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
				"figure", id, "point", j.key, "seed", strconv.FormatUint(j.seed, 10),
			), func(context.Context) {
				out, err = runOne(j.sc, j.spec, j.seed, opts)
			})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
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
					j.key, j.seed, out.col.TotalDeficiency())
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

func uniformVec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
