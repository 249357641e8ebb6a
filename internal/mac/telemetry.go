package mac

import (
	"rtmac/internal/perm"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// SwapHook observes one DP priority-swap decision: pos is the priority
// position C(k), down/up the candidate link ids, accepted whether the
// exchange was committed. Protocols expose SetSwapHook(SwapHook) to opt in;
// the network wires it automatically.
type SwapHook func(k int64, at sim.Time, pos, down, up int, accepted bool)

// swapHookCarrier is implemented by protocols with observable swap dynamics
// (the DP family).
type swapHookCarrier interface {
	SetSwapHook(SwapHook)
}

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

// instrumentation bundles the network-level metrics and the probe list.
// The registry-backed parts are always on (counter updates are cheap and
// give Report and tests one source of truth); records are only built when a
// probe is attached.
type instrumentation struct {
	// probes is the ordered list every emission site calls: events, the
	// adapter SetEventSink installs, first when attached, then the probes
	// AddProbe attached, in attach order.
	probes []Probe
	events *eventProbe

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

	// prioScratch is the reusable σ snapshot filled by priorityCarrier
	// protocols.
	prioScratch perm.Permutation
}

func newInstrumentation(reg *telemetry.Registry, links int) *instrumentation {
	return &instrumentation{
		posDebts:      make([]float64, links),
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

// observeDebts feeds the ledger's update hook: histogram always, in one
// call for the interval's links, one network-wide debt record per interval
// to the probes.
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

// observeSwap feeds the protocol's swap hook.
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
	if now := eng.Now(); now > 0 {
		at := nw.med.Airtime()
		span := float64(now)
		in.utilization.Set(float64(at.Busy) / span)
		in.dataFraction.Set(float64(at.Data) / span)
		in.emptyFraction.Set(float64(at.Empty) / span)
		in.collFraction.Set(float64(at.Collided) / span)
	}
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
