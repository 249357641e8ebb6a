package mac

import (
	"rtmac/internal/perm"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// priorityCarrier is implemented by protocols maintaining an explicit
// priority permutation σ (the DP family); the network hands σ snapshots to
// the probes so the runtime monitor can audit bijectivity and swap
// evolution, and journeys carry the priority their link held. The snapshot
// is copied into a reusable scratch slice, so it allocates nothing.
type priorityCarrier interface {
	CopyPriorities(dst perm.Permutation) perm.Permutation
}

// debtHistogramBounds cover positive debts from "caught up" through the
// pathological backlog regime; debts beyond 64 packets land in +Inf.
var debtHistogramBounds = []float64{0, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}

// backoffHistogramBounds cover Eq. 6 counters (≤ N+3) and the exponential
// windows of the CSMA baselines (up to 1024 slots).
var backoffHistogramBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// instrumentation bundles the network-level metrics and the probe list. It
// is the one place that decides what the interval loop's records feed: the
// ledger, the protocols and the contention coordinator only report them.
// The registry-backed parts are always on (counter updates are cheap and
// give Report and tests one source of truth); records are only built when a
// probe is attached.
type instrumentation struct {
	// probes is the ordered list every emission site calls: events, the
	// adapter SetEventSink installs, first when attached, then the probes
	// AddProbe attached, in attach order.
	probes []Probe
	events *eventProbe
	// slotProbes lists the probes that also implement SlotProbe, in attach
	// order: the only ones Round, Fire and Sense records reach. slotBuf
	// backs the first, so attaching the journey tracer allocates no slice.
	slotProbes []SlotProbe
	slotBuf    [1]SlotProbe
	// ctx supplies the interval index and the clock of the records the
	// coordinator reports without them.
	ctx *Context

	intervals    *telemetry.Counter
	swapAccepted *telemetry.Counter
	swapRejected *telemetry.Counter

	engineEvents  *telemetry.Gauge
	queueDepthMax *telemetry.Gauge
	utilization   *telemetry.Gauge
	dataFraction  *telemetry.Gauge
	emptyFraction *telemetry.Gauge
	collFraction  *telemetry.Gauge
	intervalsPerS *telemetry.Gauge

	debtHist    *telemetry.Histogram
	backoffHist *telemetry.Histogram
	// posDebts holds one interval's positive debts, one per link, for the
	// debt histogram's single Observe call.
	posDebts []float64
	// backoffs buffers initial backoff counters, one slot per link, for the
	// backoff histogram: they reach it in one call when the interval closes
	// or the buffer fills (a protocol that re-enters contention, like DCF,
	// draws more counters than there are links).
	backoffs []float64

	// prioScratch is the reusable σ snapshot filled by priorityCarrier
	// protocols.
	prioScratch perm.Permutation
}

func newInstrumentation(reg *telemetry.Registry, ctx *Context) *instrumentation {
	links := ctx.Links()
	return &instrumentation{
		ctx:           ctx,
		posDebts:      make([]float64, links),
		backoffs:      make([]float64, 0, links),
		intervals:     reg.Counter("rtmac_intervals_total", "completed simulation intervals"),
		swapAccepted:  reg.Counter("rtmac_swap_accepted_total", "DP priority swaps committed"),
		swapRejected:  reg.Counter("rtmac_swap_rejected_total", "DP swap candidacies that did not commit"),
		engineEvents:  reg.Gauge("rtmac_engine_events_fired", "discrete events executed by the engine"),
		queueDepthMax: reg.Gauge("rtmac_engine_queue_depth_max", "high-water mark of the engine event queue"),
		utilization:   reg.Gauge("rtmac_channel_utilization", "fraction of simulated time the channel was busy"),
		dataFraction:  reg.Gauge("rtmac_airtime_data_fraction", "fraction of simulated time spent on clean data exchanges"),
		emptyFraction: reg.Gauge("rtmac_airtime_empty_fraction", "fraction of simulated time spent on clean empty frames"),
		collFraction:  reg.Gauge("rtmac_airtime_collided_fraction", "fraction of simulated time lost to collisions"),
		intervalsPerS: reg.Gauge("rtmac_wallclock_intervals_per_second", "simulated intervals per wall-clock second over the last Run call"),
		debtHist:      reg.Histogram("rtmac_debt_positive", "positive delivery debt per link per interval, packets", debtHistogramBounds),
		backoffHist:   reg.Histogram("rtmac_backoff_slots", "initial backoff counters handed to the contention coordinator", backoffHistogramBounds),
	}
}

// observeDebts records the debt vector after the interval's Eq. 1 update:
// histogram always, in one call for the interval's links, one network-wide
// debt record per interval to the probes.
func (in *instrumentation) observeDebts(k int64, at sim.Time, debts []float64) {
	maxDebt, sum := 0.0, 0.0
	positive := 0
	posDebts := in.posDebts[:len(debts)]
	for i, d := range debts {
		pos := d
		if pos < 0 {
			pos = 0
		} else if pos > 0 {
			positive++
		}
		posDebts[i] = pos
		sum += d
		if d > maxDebt {
			maxDebt = d
		}
	}
	in.debtHist.Observe(posDebts...)
	if len(in.probes) == 0 {
		return
	}
	mean := sum / float64(len(debts))
	for _, p := range in.probes {
		p.Debt(k, at, debts, maxDebt, mean, positive)
	}
}

// observeBackoff is the contention coordinator's backoff observer: it
// buffers every initial counter for the backoff histogram and hands the
// probes a Backoff record.
func (in *instrumentation) observeBackoff(link, slots int) {
	if len(in.backoffs) == cap(in.backoffs) {
		in.flushBackoffs()
	}
	in.backoffs = append(in.backoffs, float64(slots))
	if len(in.probes) == 0 {
		return
	}
	k, at := in.ctx.K, in.ctx.Eng.Now()
	for _, p := range in.probes {
		p.Backoff(k, at, link, slots)
	}
}

// flushBackoffs observes the buffered initial counters in one call.
func (in *instrumentation) flushBackoffs() {
	if len(in.backoffs) != 0 {
		in.backoffHist.Observe(in.backoffs...)
		in.backoffs = in.backoffs[:0]
	}
}

// observeRound hands a protocol's private contention round to the slot
// probes.
func (in *instrumentation) observeRound(k int64, at sim.Time, link, slots int) {
	for _, p := range in.slotProbes {
		p.Round(k, at, link, slots)
	}
}

// observeSwap counts one DP swap decision and hands it to the probes.
func (in *instrumentation) observeSwap(k int64, at sim.Time, pos, down, up int, accepted bool) {
	if accepted {
		in.swapAccepted.Inc()
	} else {
		in.swapRejected.Inc()
	}
	for _, p := range in.probes {
		p.Swap(k, at, pos, down, up, accepted)
	}
}

// endInterval updates the per-interval gauges and closes the interval on
// every probe.
func (in *instrumentation) endInterval(nw *Network, k int64, end sim.Time) {
	in.intervals.Inc()
	eng := nw.eng
	in.engineEvents.Set(float64(eng.EventsFired()))
	in.queueDepthMax.Set(float64(eng.MaxPending()))
	busy, data, empty, collided := nw.med.Airtime().Shares(eng.Now())
	in.utilization.Set(busy)
	in.dataFraction.Set(data)
	in.emptyFraction.Set(empty)
	in.collFraction.Set(collided)
	if len(in.probes) == 0 {
		return
	}
	arrivals, served, pending := 0, 0, 0
	for n := 0; n < nw.ctx.Links(); n++ {
		arrivals += nw.ctx.Arrivals(n)
		served += nw.ctx.Served(n)
		pending += nw.ctx.Pending(n)
	}
	prio := in.priorities(nw.prio)
	for _, p := range in.probes {
		p.EndInterval(k, end, arrivals, served, pending, prio)
	}
}

// priorities snapshots σ into the reusable scratch, or returns nil when the
// protocol carries no priorities.
func (in *instrumentation) priorities(pc priorityCarrier) perm.Permutation {
	if pc == nil {
		return nil
	}
	in.prioScratch = pc.CopyPriorities(in.prioScratch)
	return in.prioScratch
}
