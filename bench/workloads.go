package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"rtmac"
	"rtmac/internal/experiment"
)

// The paper's control scenario (Section VI-B), which every interval workload
// is built from: p = 0.7, Bernoulli 0.78 arrivals, delivery ratio 0.99.
const (
	cliqueSize    = 10
	successProb   = 0.7
	arrivalRate   = 0.78
	deliveryRatio = 0.99
	// warmup is how many intervals each rep simulates before timing, so the
	// debts have left their all-zero start and the caches are warm.
	warmup = 1000
)

// warmup scales the warm-up with the work in a rep.
func (o options) warmup() int { return max(10, int(warmup*o.scale)) }

// timingQuantile is the quantile of the timed samples that ns_per_interval
// and setup_s report. Other tenants of a small shared host slow a run down in
// bursts of seconds and never speed it up, so the samples form a fast and a
// slow mode whose mix changes from run to run. A median jumps between the
// modes (12-36% run-to-run spread measured on 2 vCPUs). A low quantile stays
// in the fast mode as long as a few percent of a run fall in it; with at
// least 1 000 chunks per run, the 2nd percentile still has 20 below it.
// README.md has the numbers.
const timingQuantile = 0.02

// scaleKey names a work scale in testdata/digests.json.
func scaleKey(scale float64) string { return fmt.Sprint(scale) }

// intervalWorkload is a closed loop over one simulation: each rep builds a
// fresh simulation through rtmac.NewSimulation, attaches the workload's
// planes, simulates the warm-up and then times chunks of intervals back to
// back with no arrival rate.
type intervalWorkload struct {
	name string
	// links is a multiple of cliqueSize: 10 is the paper's fully-interfering
	// network, more links form disjoint 10-link cliques (a conflict graph).
	links int
	// observed attaches the events, monitor, journeys and watch planes.
	observed bool
	chunks   int
	chunkLen int
}

var intervalWorkloads = map[string]intervalWorkload{
	"control":  {name: "control", links: 10, chunks: 300, chunkLen: 1000},
	"cliques":  {name: "cliques", links: 50, chunks: 200, chunkLen: 100},
	"observed": {name: "observed", links: 10, observed: true, chunks: 200, chunkLen: 100},
}

func (w intervalWorkload) scaledChunks(scale float64) int {
	return max(1, int(math.Round(float64(w.chunks)*scale)))
}

// cliqueGroups partitions links into consecutive cliqueSize-link cliques, or
// returns nil for a single clique, which is the fully-interfering channel.
func cliqueGroups(links int) [][]int {
	if links <= cliqueSize {
		return nil
	}
	var groups [][]int
	for lo := 0; lo < links; lo += cliqueSize {
		g := make([]int, cliqueSize)
		for i := range g {
			g[i] = lo + i
		}
		groups = append(groups, g)
	}
	return groups
}

// simConfig is the workload's input: the control scenario on `links` links
// running DB-DP, with the seed as the simulation seed.
func simConfig(links int, protocol rtmac.Protocol, seed uint64) (rtmac.Config, error) {
	ls := make([]rtmac.Link, links)
	for i := range ls {
		ls[i] = rtmac.Link{
			SuccessProb:   successProb,
			Arrivals:      rtmac.MustBernoulliArrivals(arrivalRate),
			DeliveryRatio: deliveryRatio,
		}
	}
	cfg := rtmac.Config{Seed: seed, Profile: rtmac.ControlProfile(), Links: ls, Protocol: protocol}
	if groups := cliqueGroups(links); groups != nil {
		g, err := rtmac.CliqueConflicts(links, groups)
		if err != nil {
			return rtmac.Config{}, err
		}
		cfg.Conflicts = g
	}
	return cfg, nil
}

// repStats is what one rep of an interval workload measured.
type repStats struct {
	setup     time.Duration
	chunkNs   []float64 // wall ns per interval of each timed chunk
	allocs    uint64    // heap allocations over the whole rep
	intervals int64     // intervals simulated, warm-up included
	peakHeap  uint64    // largest heap-objects sample at a chunk boundary
	digest    string
}

func (w intervalWorkload) runUntraced(o options) *result {
	r := newResult()
	d := newDigestCheck(w.name, o)
	var chunkNs, setups, allocs, peaks []float64
	start := time.Now()
	for reps := 0; reps < minReps || time.Since(start).Seconds() < o.seconds; reps++ {
		st, err := w.rep(o)
		if err == nil {
			err = d.check(st.digest)
		}
		r.check(err)
		if err != nil {
			break
		}
		chunkNs = append(chunkNs, st.chunkNs...)
		setups = append(setups, st.setup.Seconds())
		allocs = append(allocs, float64(st.allocs)/float64(st.intervals))
		peaks = append(peaks, float64(st.peakHeap)/1e6)
	}
	r.set("ns_per_interval", "ns", quantile(chunkNs, timingQuantile))
	r.notef("ns per interval over n=%d chunks of %d intervals: p2 %.1f, p10 %.1f, median %.1f, p99 %.1f",
		len(chunkNs), w.chunkLen, quantile(chunkNs, 0.02), quantile(chunkNs, 0.1), median(chunkNs), quantile(chunkNs, 0.99))
	r.set("setup_s", "s", quantile(setups, timingQuantile))
	r.notef("set-up over n=%d: median %.4f s", len(setups), median(setups))
	r.set("allocs_per_interval", "count", median(allocs))
	r.set("peak_heap_mb", "MB", median(peaks))
	r.notef("digest %s over %d reps", d.want, len(setups))
	return r
}

// rep runs one fresh simulation of the workload and checks its output.
func (w intervalWorkload) rep(o options) (repStats, error) {
	var st repStats
	cfg, err := simConfig(w.links, rtmac.DBDP(), o.seed)
	if err != nil {
		return st, err
	}
	runtime.GC()
	m0 := mallocs()
	t0 := time.Now()
	s, err := rtmac.NewSimulation(cfg)
	if err != nil {
		return st, err
	}
	var p *planes
	if w.observed {
		if p, err = attachPlanes(s, allPlanes...); err != nil {
			return st, err
		}
	}
	if err := s.Run(o.warmup()); err != nil {
		return st, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	st.setup = time.Since(t0)
	st.peakHeap = heapBytes()
	chunks := w.scaledChunks(o.scale)
	for c := 0; c < chunks; c++ {
		t := time.Now()
		if err := s.Run(w.chunkLen); err != nil {
			return st, fmt.Errorf("%s chunk %d: %w", w.name, c, err)
		}
		st.chunkNs = append(st.chunkNs, float64(time.Since(t).Nanoseconds())/float64(w.chunkLen))
		st.peakHeap = max(st.peakHeap, heapBytes())
	}
	st.allocs = mallocs() - m0
	st.intervals = int64(o.warmup() + chunks*w.chunkLen)
	rep := s.Report()
	if err := checkReport(rep, st.intervals); err != nil {
		return st, fmt.Errorf("%s: %w", w.name, err)
	}
	st.digest = reportDigest(rep)
	if p != nil {
		if st.digest, err = p.finish(rep); err != nil {
			return st, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return st, nil
}

// checkReport holds DB-DP to what every interval workload guarantees: the
// whole run was simulated and, on the complete graph and on disjoint cliques
// alike, no transmission collided.
func checkReport(r rtmac.Report, intervals int64) error {
	if r.Intervals != intervals {
		return fmt.Errorf("report covers %d intervals, want %d", r.Intervals, intervals)
	}
	if r.Channel.Collisions != 0 {
		return fmt.Errorf("DB-DP collided %d times", r.Channel.Collisions)
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reportDigest is the CRC-32C of every Report field, floats at full
// precision: two runs agree on it only if they simulated the same trajectory.
func reportDigest(r rtmac.Report) string {
	h := crc32.New(castagnoli)
	fmt.Fprintf(h, "%s %d %.17g\n", r.Protocol, r.Intervals, r.TotalDeficiency)
	for _, l := range r.Links {
		fmt.Fprintf(h, "%.17g %.17g %.17g %.17g\n", l.Required, l.Throughput, l.Deficiency, l.DeliveryRatio)
	}
	c := r.Channel
	fmt.Fprintf(h, "%d %d %d %d %d %.17g %.17g %.17g %.17g\n", c.Transmissions, c.EmptyFrames,
		c.Deliveries, c.Losses, c.Collisions, c.BusyShare, c.DataShare, c.EmptyShare, c.CollidedShare)
	return fmt.Sprintf("%08x", h.Sum32())
}

// allPlanes lists the observation planes in the order `rtmacsim
// -record-for-diff P -monitor -watch` attaches them.
var allPlanes = []string{"journeys", "events", "monitor", "watch"}

// planes are the observation planes attached to one simulation. The event
// and journey streams go into CRC-32C writers, so their digests pin the
// streams byte for byte.
type planes struct {
	events, journeys hash.Hash32
	jt               *rtmac.Journeys
	stream           *rtmac.EventStream
	mon              *rtmac.Monitor
}

func attachPlanes(s *rtmac.Simulation, names ...string) (*planes, error) {
	p := &planes{events: crc32.New(castagnoli), journeys: crc32.New(castagnoli)}
	var err error
	for _, name := range names {
		switch name {
		case "journeys":
			p.jt, err = s.EnableJourneys(p.journeys, 1)
		case "events":
			p.stream = s.StreamEvents(p.events)
		case "monitor":
			p.mon, err = s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
		case "watch":
			_, err = s.EnableWatch(rtmac.WatchConfig{})
		default:
			err = fmt.Errorf("unknown plane %q", name)
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// finish flushes the streams, checks that the strict monitor stayed silent
// and that the journey attribution reconciles with the medium's deliveries,
// and returns the digest of both streams.
func (p *planes) finish(rep rtmac.Report) (string, error) {
	if p.stream != nil {
		if err := p.stream.Flush(); err != nil {
			return "", err
		}
	}
	if p.mon != nil && p.mon.Count() != 0 {
		return "", fmt.Errorf("monitor reported %d violations, first: %v", p.mon.Count(), p.mon.Violations()[0])
	}
	if p.jt != nil {
		if err := p.jt.Flush(); err != nil {
			return "", err
		}
		if err := checkAttribution(p.jt.Attribution(), p.jt.Seen(), p.jt.Count(), rep.Channel.Deliveries); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%08x.%08x", p.events.Sum32(), p.journeys.Sum32()), nil
}

// checkAttribution requires a full-sample journey tally to reconcile: every
// packet seen was streamed and attributed to exactly one cause, and the
// deliveries match the medium's.
func checkAttribution(a rtmac.Attribution, seen, streamed int64, delivered int) error {
	if !a.Reconciles() || a.Total != seen || a.Total != streamed || a.Delivered != int64(delivered) {
		return fmt.Errorf("journey attribution %+v does not reconcile with %d seen, %d streamed, %d delivered",
			a, seen, streamed, delivered)
	}
	return nil
}

//go:embed testdata/digests.json
var digestsJSON []byte

// pinned maps a work scale ("1" for the benchmark, "0.01" for the tests) and
// a workload to its seed-1 digest.
var pinned = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("testdata/digests.json: %v", err))
	}
	return m
}()

// digestCheck holds every rep of a run to one digest: the pinned one for
// seed 1, otherwise the first rep's.
type digestCheck struct {
	name, want string
	pinned     bool
}

func newDigestCheck(name string, o options) *digestCheck {
	d := &digestCheck{name: name}
	if o.seed == 1 {
		if want, ok := pinned[scaleKey(o.scale)][name]; ok {
			d.want, d.pinned = want, true
		}
	}
	return d
}

func (d *digestCheck) check(got string) error {
	switch {
	case d.want == "":
		d.want = got
	case got != d.want && d.pinned:
		return fmt.Errorf("%s digest %s, pinned %s", d.name, got, d.want)
	case got != d.want:
		return fmt.Errorf("%s digest %s differs from the first rep's %s", d.name, got, d.want)
	}
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

var heapSample = []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
var heapMu sync.Mutex

// heapBytes reads the bytes held by heap objects, live or not yet swept.
func heapBytes() uint64 {
	heapMu.Lock()
	defer heapMu.Unlock()
	rtmetrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// The sweep workload regenerates the paper's data figures plus the
// five-protocol baseline comparison, in order, the way `figures` does with
// its defaults (strict monitor on), at a tenth of their length.
var sweepFigures = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "extra-baselines"}

const (
	sweepScale      = 0.1
	sweepSetupScale = 0.01
	sweepSetups     = 5
	sweepWorkers    = 2
)

// nativeIntervals is each figure's per-job horizon at IntervalScale 1: the
// paper's 5000 video and 20000 control intervals. With the job counts the
// figures announce to their tracker it gives the intervals one regeneration
// simulates; bench_test.go checks that sum against the networks' own counter.
var nativeIntervals = map[string]int{
	"fig3": 5000, "fig4": 5000, "fig5": 5000, "fig6": 5000, "fig7": 5000, "fig8": 5000,
	"fig9": 20000, "fig10": 20000, "extra-baselines": 5000,
}

// scaledIntervals mirrors experiment.RunOptions' scaling of a native horizon.
func scaledIntervals(native int, scale float64) int {
	return max(10, int(float64(native)*scale))
}

// sweepTracker is the experiment.ProgressTracker of one regeneration: it
// times every figure, counts its jobs, and samples the heap at each job's
// completion.
type sweepTracker struct {
	mu       sync.Mutex
	started  map[string]time.Time
	finished map[string]time.Time
	jobs     map[string]int
	peak     uint64
}

func newSweepTracker() *sweepTracker {
	return &sweepTracker{
		started:  make(map[string]time.Time),
		finished: make(map[string]time.Time),
		jobs:     make(map[string]int),
	}
}

func (t *sweepTracker) FigureStarted(id, _ string, totalJobs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.started[id] = time.Now()
	t.jobs[id] = totalJobs
}

func (t *sweepTracker) JobCompleted(string) {
	h := heapBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peak = max(t.peak, h)
}

func (t *sweepTracker) FigureFinished(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished[id] = time.Now()
}

// seconds is a finished figure's wall time.
func (t *sweepTracker) seconds(id string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finished[id].Sub(t.started[id]).Seconds()
}

// sweepRep is one regeneration of every sweep figure.
type sweepRep struct {
	wall      time.Duration
	intervals int64
	allocs    uint64
	peak      uint64
	digest    string
	tracker   *sweepTracker
}

// regenerate runs every sweep figure in order through experiment.ByID and
// digests every series value.
func regenerate(seed uint64, scale float64, workers int) (sweepRep, error) {
	rep := sweepRep{tracker: newSweepTracker()}
	results := make([]*experiment.Result, 0, len(sweepFigures))
	runtime.GC()
	m0 := mallocs()
	t0 := time.Now()
	for _, id := range sweepFigures {
		fig, err := experiment.ByID(id)
		if err != nil {
			return rep, err
		}
		res, err := fig.Run(experiment.RunOptions{
			Seeds:         1,
			IntervalScale: scale,
			Workers:       workers,
			Monitor:       true,
			BaseSeed:      seed,
			Tracker:       rep.tracker,
		})
		if err != nil {
			return rep, fmt.Errorf("sweep: %w", err)
		}
		results = append(results, res)
	}
	rep.wall = time.Since(t0)
	rep.allocs = mallocs() - m0
	rep.peak = rep.tracker.peak
	for _, id := range sweepFigures {
		rep.intervals += int64(rep.tracker.jobs[id] * scaledIntervals(nativeIntervals[id], scale))
	}
	rep.digest = seriesDigest(results)
	return rep, nil
}

// seriesDigest is the CRC-32C of every series value formatted as %.17g.
func seriesDigest(results []*experiment.Result) string {
	h := crc32.New(castagnoli)
	for _, res := range results {
		fmt.Fprintf(h, "%s\n", res.ID)
		for _, s := range res.Series {
			fmt.Fprintf(h, "%s\n", s.Label)
			for _, col := range [][]float64{s.X, s.Y, s.Err, s.CI, s.DelayP50, s.DelayP95, s.DelayP99} {
				writeFloats(h, col)
			}
		}
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

func writeFloats(w io.Writer, xs []float64) {
	for _, x := range xs {
		fmt.Fprintf(w, "%.17g ", x)
	}
	fmt.Fprintln(w)
}

func runSweep(o options) *result {
	r := newResult()
	setupCheck := &digestCheck{name: "sweep set-up"}
	var setups []float64
	for i := 0; i < sweepSetups; i++ {
		rep, err := regenerate(o.seed, sweepSetupScale*o.scale, sweepWorkers)
		if err == nil {
			err = setupCheck.check(rep.digest)
		}
		r.check(err)
		if err != nil {
			return r
		}
		setups = append(setups, rep.wall.Seconds())
	}
	d := newDigestCheck("sweep", o)
	var walls, allocs, peaks []float64
	figures := make(map[string][]float64, len(sweepFigures))
	var intervals int64
	start := time.Now()
	for reps := 0; reps < minReps || time.Since(start).Seconds() < o.seconds; reps++ {
		rep, err := regenerate(o.seed, sweepScale*o.scale, sweepWorkers)
		if err == nil {
			err = d.check(rep.digest)
		}
		r.check(err)
		if err != nil {
			break
		}
		intervals = rep.intervals
		walls = append(walls, rep.wall.Seconds())
		for _, id := range sweepFigures {
			figures[id] = append(figures[id], rep.tracker.seconds(id))
		}
		allocs = append(allocs, float64(rep.allocs)/float64(rep.intervals))
		peaks = append(peaks, float64(rep.peak)/1e6)
	}
	// A regeneration's few seconds span several bursts of host interference,
	// so the low quantile is taken per figure, across reps, and summed.
	var fast float64
	for _, id := range sweepFigures {
		fast += quantile(figures[id], timingQuantile)
	}
	r.set("ns_per_interval", "ns", fast*1e9/float64(intervals))
	r.set("setup_s", "s", quantile(setups, timingQuantile))
	r.notef("set-up over n=%d: median %.4f s", len(setups), median(setups))
	r.set("allocs_per_interval", "count", median(allocs))
	r.set("peak_heap_mb", "MB", median(peaks))
	r.notef("sweep_s: median %.3f s over %d regenerations on %d workers", median(walls), len(walls), sweepWorkers)
	r.notef("digest %s; set-up digest %s", d.want, setupCheck.want)
	return r
}
