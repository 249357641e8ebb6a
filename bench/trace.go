package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rtmac"
	"rtmac/internal/arrival"
	"rtmac/internal/core"
	"rtmac/internal/debt"
	"rtmac/internal/journey"
	"rtmac/internal/mac"
	"rtmac/internal/medium"
	"rtmac/internal/metrics"
	"rtmac/internal/monitor"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
	"rtmac/internal/watch"
)

// runTraced measures every per-layer metric for one workload. The interval
// layers are timed on the workload's own configuration (sweep uses the
// control configuration, which is the DB-DP job of figs. 9 and 10); planes,
// protocols and the experiment harness are measured the same way for every
// workload, so each traced run reports the full set.
func runTraced(name string, o options) *result {
	r := newResult()
	w, ok := intervalWorkloads[name]
	if !ok {
		w = intervalWorkloads["control"]
	}
	r.check(traceLoop(w, o, r))
	r.check(traceReplays(w, o, r))
	r.check(traceShares(name, w, o, r))
	r.check(tracePlanes(o, r))
	r.check(traceProtocols(o, r))
	r.check(traceExperiment(o, r))
	return r
}

// replayBudget is how long each replay microbenchmark repeats its recording.
func replayBudget(o options) time.Duration {
	return time.Duration(float64(100*time.Millisecond) * o.scale)
}

// layerTimer accumulates the wall time and the calls of one wrapped entry
// point.
type layerTimer struct {
	ns, calls int64
}

func (t *layerTimer) add(start time.Time) {
	t.ns += time.Since(start).Nanoseconds()
	t.calls++
}

func (t *layerTimer) mean() float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.calls)
}

// tracedArrivals times every arrival.VectorProcess.Sample call.
type tracedArrivals struct {
	arrival.VectorProcess
	sample layerTimer
}

func (a *tracedArrivals) Sample(rng *sim.RNG, dst []int) {
	t := time.Now()
	a.VectorProcess.Sample(rng, dst)
	a.sample.add(t)
}

// tracedProtocol times the DP protocol's interval hooks. The embedded
// *core.Protocol still supplies SetSwapHook, Priorities and CopyPriorities,
// which the network looks for, so wrapping changes no behaviour.
type tracedProtocol struct {
	*core.Protocol
	begin, end layerTimer
}

func (p *tracedProtocol) BeginInterval(ctx *mac.Context) {
	t := time.Now()
	p.Protocol.BeginInterval(ctx)
	p.begin.add(t)
}

func (p *tracedProtocol) EndInterval(ctx *mac.Context) {
	t := time.Now()
	p.Protocol.EndInterval(ctx)
	p.end.add(t)
}

// tracedCollector times the metrics collector's per-interval update.
type tracedCollector struct {
	*metrics.Collector
	observe layerTimer
}

func (c *tracedCollector) ObserveInterval(k int64, arrivals, served []int) {
	t := time.Now()
	c.Collector.ObserveInterval(k, arrivals, served)
	c.observe.add(t)
}

// tracedNet is a mac.Network assembled the way rtmac.NewSimulation assembles
// it, with the layer entry points wrapped in timers and, for the observed
// workload, the planes attached in the order attachPlanes uses.
type tracedNet struct {
	nw            *mac.Network
	arr           *tracedArrivals
	prot          *tracedProtocol
	col           *tracedCollector
	req           []float64
	fires, senses int64

	events, journeys hash.Hash32
	jsonl            *telemetry.JSONL
	mon              *monitor.Monitor
	jt               *journey.Tracer
}

func newTracedNet(w intervalWorkload, seed uint64) (*tracedNet, error) {
	n := w.links
	proc, err := arrival.NewBernoulli(arrivalRate)
	if err != nil {
		return nil, err
	}
	probs := make([]float64, n)
	req := make([]float64, n)
	procs := make([]arrival.Process, n)
	for i := range procs {
		probs[i], req[i], procs[i] = successProb, deliveryRatio*proc.Mean(), proc
	}
	av, err := arrival.NewIndependent(procs...)
	if err != nil {
		return nil, err
	}
	col, err := metrics.NewCollector(req)
	if err != nil {
		return nil, err
	}
	prot, err := core.NewDBDP(n)
	if err != nil {
		return nil, err
	}
	graph, err := conflictGraph(n)
	if err != nil {
		return nil, err
	}
	t := &tracedNet{
		arr:  &tracedArrivals{VectorProcess: av},
		prot: &tracedProtocol{Protocol: prot},
		col:  &tracedCollector{Collector: col},
		req:  req,
	}
	t.nw, err = mac.NewNetwork(mac.NetworkConfig{
		Seed:        seed,
		Profile:     phy.Control(),
		SuccessProb: probs,
		Conflicts:   graph,
		Arrivals:    t.arr,
		Required:    req,
		Protocol:    t.prot,
		Observers:   []mac.Observer{t.col},
	})
	if err != nil {
		return nil, err
	}
	if w.observed {
		if err := t.attachPlanes(); err != nil {
			return nil, err
		}
	}
	// Installed after the journey tracer, which sets these observers too; the
	// replacements forward to it.
	cont := t.nw.Contention()
	cont.SetFireObserver(func(link int, started bool) {
		t.fires++
		if t.jt != nil {
			t.jt.ObserveFire(link, started)
		}
	})
	cont.SetSenseObserver(func(link int, busy bool) {
		t.senses++
		if t.jt != nil {
			t.jt.ObserveSense(link, busy)
		}
	})
	return t, nil
}

// conflictGraph is the internal form of simConfig's conflict graph.
func conflictGraph(links int) (*medium.Graph, error) {
	if groups := cliqueGroups(links); groups != nil {
		return medium.CliqueGraph(links, groups)
	}
	return nil, nil
}

// attachPlanes wires journeys, the event stream, the strict monitor with its
// flight recorder, and the watch engine the way the rtmac methods do.
func (t *tracedNet) attachPlanes() error {
	n := len(t.req)
	t.events, t.journeys = crc32.New(castagnoli), crc32.New(castagnoli)
	jt, err := journey.NewTracer(n, t.journeys, 1)
	if err != nil {
		return err
	}
	if err := t.nw.SetJourneyTracer(jt); err != nil {
		return err
	}
	t.jt = jt
	// The monitor and the watch engine emit into every attached sink, like
	// rtmac's fan-out; the list is filled in once all of them exist.
	fan := &telemetry.MultiSink{}
	t.jsonl = telemetry.NewJSONL(t.events)
	rec, err := monitor.NewFlightRecorder(rtmac.DefaultFlightRecorderIntervals)
	if err != nil {
		return err
	}
	t.mon, err = monitor.New(monitor.Config{
		Links:         n,
		Interval:      phy.Control().Interval,
		CollisionFree: true,
		SwapPairs:     1,
		Strict:        true,
		Registry:      t.nw.Telemetry(),
		Output:        fan,
	})
	if err != nil {
		return err
	}
	t.nw.SetIntervalCheck(t.mon.Err)
	eng, err := watch.New(watch.Config{Links: n, Required: t.req, Registry: t.nw.Telemetry(), Output: fan})
	if err != nil {
		return err
	}
	*fan = telemetry.MultiSink{t.jsonl, rec, t.mon, eng}
	t.nw.SetEventSink(*fan)
	return nil
}

// report rebuilds rtmac.Report from the network's parts, field by field as
// Simulation.Report computes it, so the traced run digests like the
// untraced one.
func (t *tracedNet) report() rtmac.Report {
	col := t.col.Collector
	links := make([]rtmac.LinkReport, len(t.req))
	for i := range links {
		links[i] = rtmac.LinkReport{
			Required:      t.req[i],
			Throughput:    col.Throughput(i),
			Deficiency:    col.Deficiency(i),
			DeliveryRatio: col.DeliveryRatio(i),
		}
	}
	st := t.nw.Medium().Stats()
	at := t.nw.Medium().Airtime()
	span := float64(t.nw.Engine().Now())
	return rtmac.Report{
		Protocol:        t.prot.Name(),
		Intervals:       col.Intervals(),
		TotalDeficiency: col.TotalDeficiency(),
		Links:           links,
		Channel: rtmac.ChannelReport{
			Transmissions: st.Transmissions,
			EmptyFrames:   st.EmptyFrames,
			Deliveries:    st.Deliveries,
			Losses:        st.Losses,
			Collisions:    st.Collisions,
			BusyShare:     float64(at.Busy) / span,
			DataShare:     float64(at.Data) / span,
			EmptyShare:    float64(at.Empty) / span,
			CollidedShare: float64(at.Collided) / span,
		},
	}
}

// digest checks the run the way the untraced rep does and returns its
// digest.
func (t *tracedNet) digest(intervals int64) (string, error) {
	rep := t.report()
	if err := checkReport(rep, intervals); err != nil {
		return "", err
	}
	if t.jsonl == nil {
		return reportDigest(rep), nil
	}
	if err := t.jsonl.Flush(); err != nil {
		return "", err
	}
	if t.mon.Count() != 0 {
		return "", fmt.Errorf("monitor reported %d violations, first: %v", t.mon.Count(), t.mon.Violations()[0])
	}
	if err := t.jt.Flush(); err != nil {
		return "", err
	}
	if err := checkAttribution(t.jt.Attribution(), t.jt.Seen(), t.jt.Count(), rep.Channel.Deliveries); err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x.%08x", t.events.Sum32(), t.journeys.Sum32()), nil
}

// traceLoop runs one untraced rep and one traced rep of the same length,
// requires equal digests, and reports the loop and call timings of the
// traced rep with its overhead over the untraced one.
func traceLoop(w intervalWorkload, o options, r *result) error {
	d := newDigestCheck(w.name, o)
	u, err := w.rep(o)
	if err != nil {
		return err
	}
	if err := d.check(u.digest); err != nil {
		return err
	}
	t, err := newTracedNet(w, o.seed)
	if err != nil {
		return err
	}
	if err := t.nw.Run(o.warmup()); err != nil {
		return err
	}
	t.arr.sample, t.prot.begin, t.prot.end, t.col.observe = layerTimer{}, layerTimer{}, layerTimer{}, layerTimer{}
	eng, med := t.nw.Engine(), t.nw.Medium()
	events0, swaps0, fires0, senses0 := eng.EventsFired(), t.prot.Swaps(), t.fires, t.senses
	st0, busy0, now0 := med.Stats(), med.Airtime().Busy, eng.Now()

	samples := make([]float64, w.scaledChunks(o.scale)*w.chunkLen)
	// chunkNs groups the per-interval samples into the untraced rep's chunks,
	// so the overhead compares like with like.
	chunkNs := make([]float64, w.scaledChunks(o.scale))
	for i := range samples {
		start := time.Now()
		if err := t.nw.Run(1); err != nil {
			return fmt.Errorf("traced %s: %w", w.name, err)
		}
		samples[i] = float64(time.Since(start).Nanoseconds())
		chunkNs[i/w.chunkLen] += samples[i] / float64(w.chunkLen)
	}
	digest, err := t.digest(int64(o.warmup() + len(samples)))
	if err != nil {
		return fmt.Errorf("traced %s: %w", w.name, err)
	}
	if err := d.check(digest); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}

	n := float64(len(samples))
	st := med.Stats()
	tx := float64(st.Transmissions - st0.Transmissions)
	r.set("loop.interval_p50_ns", "ns", quantile(samples, 0.5))
	r.set("loop.interval_p99_ns", "ns", quantile(samples, 0.99))
	r.set("sim.events_per_interval", "count", float64(eng.EventsFired()-events0)/n)
	r.set("sim.schedule_fire_ns", "ns", scheduleFire(eng.MaxPending(), replayBudget(o)))
	r.set("arrival.sample_ns", "ns", t.arr.sample.mean())
	r.set("core.begin_ns", "ns", t.prot.begin.mean())
	r.set("core.end_ns", "ns", t.prot.end.mean())
	r.set("core.swaps_per_interval", "count", float64(t.prot.Swaps()-swaps0)/n)
	r.set("mac.fires_per_interval", "count", float64(t.fires-fires0)/n)
	r.set("mac.senses_per_interval", "count", float64(t.senses-senses0)/n)
	r.set("medium.tx_per_interval", "count", tx/n)
	r.set("medium.collision_frac", "fraction", float64(st.Collisions-st0.Collisions)/tx)
	r.set("medium.busy_frac", "fraction", float64(med.Airtime().Busy-busy0)/float64(eng.Now()-now0))
	r.set("metrics.observe_ns", "ns", t.col.observe.mean())
	untraced, traced := quantile(u.chunkNs, timingQuantile), quantile(chunkNs, timingQuantile)
	r.set("trace.overhead_frac", "fraction", traced/untraced-1)
	r.notef("%s digest %s (untraced and traced); ns per interval untraced %.1f, traced %.1f (p2 of %d chunks)",
		w.name, d.want, untraced, traced, len(chunkNs))
	return nil
}

// scheduleFire times one ScheduleAt plus the Step that fires it, on an
// engine already holding pending-1 timers, the traced run's high-water mark.
func scheduleFire(pending int, budget time.Duration) float64 {
	eng := sim.NewEngine(1)
	noop := func() {}
	for i := 1; i < pending; i++ {
		eng.ScheduleAt(sim.Time(1)<<50, noop)
	}
	ops := 0
	start := time.Now()
	for ops == 0 || time.Since(start) < budget {
		for i := 0; i < 1000; i++ {
			eng.ScheduleAt(eng.Now()+1, noop)
			eng.Step()
		}
		ops += 1000
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// recordIntervals is how many post-warm-up intervals the replays record.
const recordIntervals = 500

// recording is a decoded event stream of the workload's configuration, the
// input every replay microbenchmark draws from.
type recording struct {
	events    []telemetry.Event
	links     int
	intervals int
	graph     *medium.Graph
}

func record(w intervalWorkload, o options) (*recording, error) {
	cfg, err := simConfig(w.links, rtmac.DBDP(), o.seed)
	if err != nil {
		return nil, err
	}
	s, err := rtmac.NewSimulation(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Run(o.warmup()); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	stream := s.StreamEvents(&buf)
	n := max(10, int(recordIntervals*o.scale))
	if err := s.Run(n); err != nil {
		return nil, err
	}
	if err := stream.Flush(); err != nil {
		return nil, err
	}
	events, err := rtmac.DecodeEvents(&buf)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("%s recorded no events", w.name)
	}
	graph, err := conflictGraph(w.links)
	if err != nil {
		return nil, err
	}
	return &recording{events: events, links: w.links, intervals: n, graph: graph}, nil
}

func (rec *recording) newMedium(eng *sim.Engine) (*medium.Medium, error) {
	probs := make([]float64, rec.links)
	for i := range probs {
		probs[i] = successProb
	}
	return medium.New(eng, probs, medium.WithGraph(rec.graph))
}

// traceReplays feeds a recording of the workload's configuration back into
// fresh instances of single layers: the contention coordinator, the medium,
// the debt ledger and the JSONL encoder.
func traceReplays(w intervalWorkload, o options, r *result) error {
	rec, err := record(w, o)
	if err != nil {
		return err
	}
	budget := replayBudget(o)
	r.set("telemetry.events_per_interval", "count", float64(len(rec.events))/float64(rec.intervals))
	ns, err := replayContention(rec, budget)
	if err != nil {
		return err
	}
	r.set("mac.contention_round_ns", "ns", ns)
	if ns, err = replayMedium(rec, budget); err != nil {
		return err
	}
	r.set("medium.start_finish_ns", "ns", ns)
	if ns, err = replayLedger(rec, budget); err != nil {
		return err
	}
	r.set("debt.end_interval_ns", "ns", ns)
	replayEncoding(rec, budget, r)
	return nil
}

// replayContention replays each interval's recorded backoff counters into a
// fresh coordinator with Add and Settle, every fire starting one data
// exchange, and drains the interval: the single-grid countdown on the
// complete graph, the per-link one on cliques.
func replayContention(rec *recording, budget time.Duration) (float64, error) {
	var rounds [][][2]int
	k := int64(-1)
	for _, ev := range rec.events {
		if ev.Kind != telemetry.EventBackoff {
			continue
		}
		if ev.K != k {
			rounds = append(rounds, nil)
			k = ev.K
		}
		last := len(rounds) - 1
		rounds[last] = append(rounds[last], [2]int{ev.Link, int(ev.Fields["slots"])})
	}
	if len(rounds) == 0 {
		return 0, fmt.Errorf("recording holds no backoff events")
	}
	profile := phy.Control()
	eng := sim.NewEngine(1)
	med, err := rec.newMedium(eng)
	if err != nil {
		return 0, err
	}
	cont, err := mac.NewContention(eng, med, profile.Slot)
	if err != nil {
		return 0, err
	}
	contenders := make([]mac.Contender, rec.links)
	for link := range contenders {
		contenders[link].Fire = func() bool {
			med.Start(link, profile.DataAirtime, false, nil)
			return true
		}
	}
	done := 0
	start := time.Now()
	for done == 0 || time.Since(start) < budget {
		for _, round := range rounds {
			for _, b := range round {
				cont.Add(b[0], b[1], contenders[b[0]])
			}
			cont.Settle()
			eng.Run()
			cont.Clear()
		}
		done += len(rounds)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(done), nil
}

// replayMedium starts every recorded transmission at its recorded instant
// on a fresh medium (with the workload's conflict graph) and lets it finish.
func replayMedium(rec *recording, budget time.Duration) (float64, error) {
	type tx struct {
		link       int
		start, dur sim.Time
		empty      bool
	}
	var txs []tx
	for _, ev := range rec.events {
		if ev.Kind == telemetry.EventTx {
			dur := sim.Time(ev.Fields["dur"])
			txs = append(txs, tx{link: ev.Link, start: ev.At - dur, dur: dur, empty: ev.Fields["empty"] == 1})
		}
	}
	if len(txs) == 0 {
		return 0, fmt.Errorf("recording holds no transmissions")
	}
	sort.SliceStable(txs, func(i, j int) bool { return txs[i].start < txs[j].start })
	var elapsed time.Duration
	done := 0
	for done == 0 || elapsed < budget {
		eng := sim.NewEngine(1)
		med, err := rec.newMedium(eng)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, t := range txs {
			eng.RunUntil(t.start)
			med.Start(t.link, t.dur, t.empty, nil)
		}
		eng.Run()
		elapsed += time.Since(start)
		done += len(txs)
	}
	return float64(elapsed.Nanoseconds()) / float64(done), nil
}

// replayLedger applies the recorded served vectors (delivered data
// transmissions per link and interval) to a fresh debt ledger.
func replayLedger(rec *recording, budget time.Duration) (float64, error) {
	k0 := rec.events[0].K
	served := make([][]int, rec.intervals)
	for i := range served {
		served[i] = make([]int, rec.links)
	}
	for _, ev := range rec.events {
		if ev.Kind == telemetry.EventTx && ev.Fields["empty"] == 0 && medium.Outcome(ev.Fields["outcome"]) == medium.Delivered {
			served[ev.K-k0][ev.Link]++
		}
	}
	req := make([]float64, rec.links)
	for i := range req {
		req[i] = deliveryRatio * arrivalRate
	}
	var elapsed time.Duration
	done := 0
	for done == 0 || elapsed < budget {
		l, err := debt.NewLedger(req)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, s := range served {
			if err := l.EndInterval(s); err != nil {
				return 0, err
			}
		}
		elapsed += time.Since(start)
		done += len(served)
	}
	return float64(elapsed.Nanoseconds()) / float64(done), nil
}

// encodeKinds are the event kinds every interval of a DB-DP run emits.
var encodeKinds = []string{
	telemetry.EventTx, telemetry.EventBackoff, telemetry.EventSwap,
	telemetry.EventDebt, telemetry.EventInterval, telemetry.EventPriority,
}

// replayEncoding re-encodes the decoded events of each kind through a JSONL
// sink writing to io.Discard.
func replayEncoding(rec *recording, budget time.Duration, r *result) {
	byKind := make(map[string][]telemetry.Event)
	for _, ev := range rec.events {
		byKind[ev.Kind] = append(byKind[ev.Kind], ev)
	}
	for _, kind := range encodeKinds {
		evs := byKind[kind]
		j := telemetry.NewJSONL(io.Discard)
		done := 0
		m0 := mallocs()
		start := time.Now()
		for len(evs) > 0 && (done == 0 || time.Since(start) < budget) {
			for _, ev := range evs {
				j.Emit(ev)
			}
			done += len(evs)
		}
		elapsed := time.Since(start)
		allocs := mallocs() - m0
		r.set("telemetry.encode_ns."+kind, "ns", float64(elapsed.Nanoseconds())/float64(max(done, 1)))
		r.set("telemetry.encode_allocs."+kind, "count", float64(allocs)/float64(max(done, 1)))
	}
}

// timeChunks warms s up, then times `chunks` chunks of chunkLen intervals and
// returns the wall ns per interval at timingQuantile, like ns_per_interval.
func timeChunks(s *rtmac.Simulation, o options, chunks, chunkLen int) (float64, error) {
	if err := s.Run(o.warmup()); err != nil {
		return 0, err
	}
	perInterval := make([]float64, chunks)
	for c := range perInterval {
		start := time.Now()
		if err := s.Run(chunkLen); err != nil {
			return 0, err
		}
		perInterval[c] = float64(time.Since(start).Nanoseconds()) / float64(chunkLen)
	}
	return quantile(perInterval, timingQuantile), nil
}

// planeChunk is how many intervals one timed plane chunk simulates.
const planeChunk = 100

// planeCost times the control configuration with one plane attached against
// a bare copy, alternating their chunks so host noise hits both alike, and
// returns the difference in wall ns and allocations per interval.
func planeCost(o options, plane string) (ns, allocs float64, err error) {
	var sims [2]*rtmac.Simulation // bare, then with the plane
	var p *planes
	for i := range sims {
		cfg, err := simConfig(cliqueSize, rtmac.DBDP(), o.seed)
		if err != nil {
			return 0, 0, err
		}
		if sims[i], err = rtmac.NewSimulation(cfg); err != nil {
			return 0, 0, err
		}
		if i == 1 {
			if p, err = attachPlanes(sims[i], plane); err != nil {
				return 0, 0, err
			}
		}
		if err := sims[i].Run(o.warmup()); err != nil {
			return 0, 0, err
		}
	}
	chunks := max(1, int(50*o.scale))
	var perInterval [2][]float64
	var mallocsIn [2]uint64
	for c := 0; c < chunks; c++ {
		for i, s := range sims {
			m0 := mallocs()
			start := time.Now()
			if err := s.Run(planeChunk); err != nil {
				return 0, 0, err
			}
			perInterval[i] = append(perInterval[i], float64(time.Since(start).Nanoseconds())/planeChunk)
			mallocsIn[i] += mallocs() - m0
		}
	}
	if _, err := p.finish(sims[1].Report()); err != nil {
		return 0, 0, err
	}
	ns = quantile(perInterval[1], timingQuantile) - quantile(perInterval[0], timingQuantile)
	allocs = (float64(mallocsIn[1]) - float64(mallocsIn[0])) / float64(chunks*planeChunk)
	return ns, allocs, nil
}

// tracePlanes measures what each plane, attached alone to the control
// configuration, adds to it.
func tracePlanes(o options, r *result) error {
	for _, p := range allPlanes {
		ns, allocs, err := planeCost(o, p)
		if err != nil {
			return fmt.Errorf("plane %s: %w", p, err)
		}
		r.set("plane."+p+".ns_per_interval", "ns", ns)
		r.set("plane."+p+".allocs_per_interval", "count", allocs)
	}
	return nil
}

// benchProtocols are the five policies the sweep runs, under the names the
// BENCH_*.json rows use.
var benchProtocols = []struct {
	name string
	p    rtmac.Protocol
}{
	{"dbdp", rtmac.DBDP()}, {"ldf", rtmac.LDF()}, {"fcsma", rtmac.FCSMA()},
	{"framecsma", rtmac.FrameCSMA()}, {"dcf", rtmac.DCF()},
}

// traceProtocols runs each policy on the control configuration.
func traceProtocols(o options, r *result) error {
	for _, bp := range benchProtocols {
		cfg, err := simConfig(cliqueSize, bp.p, o.seed)
		if err != nil {
			return err
		}
		s, err := rtmac.NewSimulation(cfg)
		if err != nil {
			return err
		}
		ns, err := timeChunks(s, o, max(1, int(50*o.scale)), 1000)
		if err != nil {
			return fmt.Errorf("protocol %s: %w", bp.name, err)
		}
		r.set("proto."+bp.name+".ns_per_interval", "ns", ns)
	}
	return nil
}

// traceExperiment regenerates the sweep on sweepWorkers workers and on one,
// timing each figure from its tracker callbacks. Both regenerations must give
// the sweep's digest.
func traceExperiment(o options, r *result) error {
	d := newDigestCheck("sweep", o)
	cpu0 := cpuTime()
	par, err := regenerate(o.seed, sweepScale*o.scale, sweepWorkers)
	if err != nil {
		return err
	}
	cpu := cpuTime() - cpu0
	if err := d.check(par.digest); err != nil {
		return err
	}
	serial, err := regenerate(o.seed, sweepScale*o.scale, 1)
	if err != nil {
		return err
	}
	if err := d.check(serial.digest); err != nil {
		return fmt.Errorf("one-worker regeneration: %w", err)
	}
	tr := par.tracker
	for _, id := range sweepFigures {
		r.set("experiment.figure_s."+id, "s", tr.seconds(id))
	}
	r.set("experiment.cpu_util", "fraction", cpu.Seconds()/(par.wall.Seconds()*sweepWorkers))
	r.set("experiment.serial_s", "s", serial.wall.Seconds())
	r.set("experiment.speedup", "ratio", serial.wall.Seconds()/par.wall.Seconds())
	r.notef("sweep digest %s on %d workers and on 1", d.want, sweepWorkers)
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// profileHz is the CPU profile's sampling rate. pprof's default 100 Hz gives
// too few samples to split a few seconds across 17 package groups; CPU-time
// timers only tick at the kernel's HZ, commonly 250, so asking for more adds
// nothing. Raising the rate makes the runtime print a harmless "cannot set
// cpu profile rate" line on standard error.
const profileHz = 250

// profileSeconds is how long the share profile keeps repeating reps.
const profileSeconds = 3

// shareGroups are the share.<group> metrics, in the order they are matched.
var shareGroups = []string{
	"sim", "arrival", "mac", "medium", "core", "baselines", "debt", "metrics", "telemetry",
	"monitor", "journey", "watch", "experiment", "stats", "runtime", "encoding_json", "other",
}

// shareGroup maps a package path to its share.<group>.
func shareGroup(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "rtmac/internal/mac/"):
		return "baselines"
	case strings.HasPrefix(pkg, "rtmac/internal/"):
		g := strings.TrimPrefix(pkg, "rtmac/internal/")
		for _, s := range shareGroups {
			if g == s {
				return s
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return "other"
}

// funcPackage extracts the package path from a symbol such as
// "rtmac/internal/mac.(*Contention).rearmGraph".
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/') + 1
	if dot := strings.IndexByte(sym[slash:], '.'); dot >= 0 {
		return sym[:slash+dot]
	}
	return sym
}

// traceShares profiles untraced reps of the workload and reports each
// package group's share of the flat CPU samples, as `go tool pprof -top`
// attributes them.
func traceShares(name string, w intervalWorkload, o options, r *result) error {
	f, err := os.CreateTemp("", "rtmacbench-*.pprof")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	start := time.Now()
	for reps := 0; err == nil && (reps == 0 || time.Since(start).Seconds() < profileSeconds*o.scale); reps++ {
		if name == "sweep" {
			_, err = regenerate(o.seed, sweepScale*o.scale, sweepWorkers)
		} else {
			_, err = w.rep(o)
		}
	}
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	shares, err := pprofShares(f.Name())
	if err != nil {
		return err
	}
	for _, g := range shareGroups {
		r.set("share."+g, "fraction", shares[g])
	}
	return nil
}

// pprofShares runs `go tool pprof -top` on a profile and sums the flat
// percentages by share group.
func pprofShares(path string) (map[string]float64, error) {
	out, err := exec.Command(goTool(), "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := make(map[string]float64)
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue // the column header
		}
		shares[shareGroup(funcPackage(f[5]))] += pct / 100
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("go tool pprof printed no samples")
	}
	return shares, nil
}

// goTool finds the go command that built this benchmark.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}
