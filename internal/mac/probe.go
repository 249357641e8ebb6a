package mac

import (
	"rtmac/internal/medium"
	"rtmac/internal/perm"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Probe observes the interval loop through typed records. It is the only
// way an observation plane sees the loop: the event adapter, the runtime
// monitor, the journey tracer, the delay statistics and the slot-budget
// watchdog are all probes. The network calls its probes in one fixed order
// at every site: the event adapter SetEventSink installs always comes first,
// then the probes AddProbe attached, in attach order. Slices a probe
// receives are reused between calls; a probe copies what it keeps. Embed
// NopProbe to implement only the records a probe reads. The per-slot
// records of the contention rounds (Round, Fire, Sense) are not part of
// Probe: a probe that reads them also implements SlotProbe.
type Probe interface {
	// BeginInterval runs once interval k's arrivals are in the buffers,
	// before the protocol schedules anything. The interval spans
	// [start, end), end being every packet's deadline; arrivals[link] is
	// A_link(k) and prio is σ held during the interval (swaps commit at its
	// end), or nil when the protocol carries no priorities.
	BeginInterval(k int64, start, end sim.Time, arrivals []int, prio perm.Permutation)
	// Backoff reports the initial counter link was handed as it joined the
	// contention coordinator at simulated time at.
	Backoff(k int64, at sim.Time, link, slots int)
	// Tx reports one completed transmission and its resolved outcome, before
	// the transmitter's delivery bookkeeping runs.
	Tx(k int64, tx medium.Transmission, outcome medium.Outcome)
	// Swap reports one DP priority-swap decision: pos is the priority
	// position C(k), down and up the candidate links.
	Swap(k int64, at sim.Time, pos, down, up int, accepted bool)
	// Debt reports the debt vector after the interval's Eq. 1 update
	// (debts[link] is d_link(k)) with its largest value, its mean and how
	// many links owe a positive debt.
	Debt(k int64, at sim.Time, debts []float64, max, mean float64, positive int)
	// EndInterval closes interval k at its deadline end with the arrivals,
	// deliveries and packets still queued (expired), each summed over all
	// links, and the priority snapshot σ(k) after the interval's swaps
	// (prio[link] is link's priority index, 1 highest), or nil when the
	// protocol carries no priorities.
	EndInterval(k int64, end sim.Time, arrivals, served, expired int, prio perm.Permutation)
}

// SlotProbe is the optional interface of a probe that reads the per-slot
// records of the contention rounds; the journey tracer is the one that
// does. The network hands these records only to the probes implementing
// it, in attach order, and installs the coordinator's fire and sense
// observers only once the first of them attaches. None reaches an event
// stream.
type SlotProbe interface {
	// Round reports one contention round a protocol ran outside the
	// coordinator (FCSMA's private per-round draws): link drew slots.
	Round(k int64, at sim.Time, link, slots int)
	// Fire reports link's coordinator counter reaching zero; started tells
	// whether the link put a frame on the air.
	Fire(k int64, at sim.Time, link int, started bool)
	// Sense reports the carrier-sense observation delivered at link's
	// counter-one instant.
	Sense(k int64, at sim.Time, link int, busy bool)
}

// NopProbe implements every Probe record as a no-op. A probe embeds it and
// overrides only the records it reads.
type NopProbe struct{}

func (NopProbe) BeginInterval(int64, sim.Time, sim.Time, []int, perm.Permutation) {}
func (NopProbe) Backoff(int64, sim.Time, int, int)                                {}
func (NopProbe) Tx(int64, medium.Transmission, medium.Outcome)                    {}
func (NopProbe) Swap(int64, sim.Time, int, int, int, bool)                        {}
func (NopProbe) Debt(int64, sim.Time, []float64, float64, float64, int)           {}
func (NopProbe) EndInterval(int64, sim.Time, int, int, int, perm.Permutation)     {}

// eventProbe is the probe SetEventSink installs: it renders every typed
// record as a telemetry.Event on its sink. Each emission site owns one
// payload of its kind's canonical schema and overwrites its values for every
// event, so steady-state emission allocates nothing and builds no map. This
// is safe because the Sink contract forbids retaining the payload beyond the
// Emit call.
type eventProbe struct {
	NopProbe
	sink telemetry.Sink
	// graph is the medium's conflict graph, recorded at the head of the
	// stream when it is not complete.
	graph *medium.Graph

	tx, backoff, swap, debt, interval *telemetry.Payload
	// prio is the priority snapshot's payload, built with the first
	// snapshot; prioSlot[link] is the position of link's field in it.
	prio     *telemetry.Payload
	prioSlot []int
}

func newEventProbe(sink telemetry.Sink, graph *medium.Graph) *eventProbe {
	return &eventProbe{
		sink:     sink,
		graph:    graph,
		tx:       telemetry.NewPayload(telemetry.TxSchema),
		backoff:  telemetry.NewPayload(telemetry.BackoffSchema),
		swap:     telemetry.NewPayload(telemetry.SwapSchema),
		debt:     telemetry.NewPayload(telemetry.DebtSchema),
		interval: telemetry.NewPayload(telemetry.IntervalSchema),
	}
}

// BeginInterval records the conflict topology at the head of the stream, one
// event per undirected edge, so offline auditors can rebuild the graph.
// Fully-interfering runs (the complete graph) emit nothing: readers default
// to the complete graph.
func (e *eventProbe) BeginInterval(k int64, _, _ sim.Time, _ []int, _ perm.Permutation) {
	g := e.graph
	if k != 0 || g.Complete() {
		return
	}
	p := telemetry.NewPayload(telemetry.ConflictSchema)
	g.EachEdge(func(i, j int) {
		p.Values[telemetry.ConflictPeer] = float64(j)
		e.sink.Emit(telemetry.Event{K: 0, At: 0, Link: i, Kind: telemetry.EventConflict, Payload: p})
	})
}

func (e *eventProbe) Backoff(k int64, at sim.Time, link, slots int) {
	e.backoff.Values[telemetry.BackoffSlots] = float64(slots)
	e.sink.Emit(telemetry.Event{
		K: k, At: at, Link: link, Kind: telemetry.EventBackoff, Payload: e.backoff,
	})
}

func (e *eventProbe) Tx(k int64, tx medium.Transmission, outcome medium.Outcome) {
	v := e.tx.Values
	v[telemetry.TxDur] = float64(tx.End - tx.Start)
	v[telemetry.TxEmpty] = b2f(tx.Empty)
	v[telemetry.TxOutcome] = float64(outcome)
	e.sink.Emit(telemetry.Event{
		K: k, At: tx.End, Link: tx.Link, Kind: telemetry.EventTx, Payload: e.tx,
	})
}

func (e *eventProbe) Swap(k int64, at sim.Time, pos, down, up int, accepted bool) {
	v := e.swap.Values
	v[telemetry.SwapPos] = float64(pos)
	v[telemetry.SwapDown] = float64(down)
	v[telemetry.SwapUp] = float64(up)
	v[telemetry.SwapAccepted] = b2f(accepted)
	e.sink.Emit(telemetry.Event{
		K: k, At: at, Link: -1, Kind: telemetry.EventSwap, Payload: e.swap,
	})
}

func (e *eventProbe) Debt(k int64, at sim.Time, _ []float64, max, mean float64, positive int) {
	v := e.debt.Values
	v[telemetry.DebtMax] = max
	v[telemetry.DebtMean] = mean
	v[telemetry.DebtPositive] = float64(positive)
	e.sink.Emit(telemetry.Event{
		K: k, At: at, Link: -1, Kind: telemetry.EventDebt, Payload: e.debt,
	})
}

// EndInterval emits the interval event, then the σ(k) snapshot (field l<n>
// holds link n's priority index), so a stream reader sees the interval's
// swaps strictly before the permutation they produced.
func (e *eventProbe) EndInterval(k int64, end sim.Time, arrivals, served, expired int, prio perm.Permutation) {
	v := e.interval.Values
	v[telemetry.IntervalArrivals] = float64(arrivals)
	v[telemetry.IntervalServed] = float64(served)
	v[telemetry.IntervalExpired] = float64(expired)
	e.sink.Emit(telemetry.Event{
		K: k, At: end, Link: -1, Kind: telemetry.EventInterval, Payload: e.interval,
	})
	if prio == nil {
		return
	}
	if len(prio) != len(e.prioSlot) {
		s := telemetry.PrioSchema(len(prio))
		e.prio = telemetry.NewPayload(s)
		e.prioSlot = make([]int, len(prio))
		for link := range e.prioSlot {
			e.prioSlot[link] = s.Index(telemetry.PrioName(link))
		}
	}
	for link, pr := range prio {
		e.prio.Values[e.prioSlot[link]] = float64(pr)
	}
	e.sink.Emit(telemetry.Event{
		K: k, At: end, Link: -1, Kind: telemetry.EventPriority, Payload: e.prio,
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
