package mac

import (
	"fmt"
	"slices"
	"time"

	"rtmac/internal/arrival"
	"rtmac/internal/debt"
	"rtmac/internal/journey"
	"rtmac/internal/medium"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Protocol is a medium-access policy driven by the network's interval loop.
// BeginInterval is invoked at each interval's start with fresh arrivals
// already in the buffers; the protocol schedules its transmissions through
// the context (and the Contention coordinator, if it uses one).
// EndInterval is invoked at the deadline, after all channel activity for the
// interval has finished, so the protocol can commit state (e.g. priority
// swaps) and cancel whatever it scheduled.
type Protocol interface {
	Name() string
	BeginInterval(ctx *Context)
	EndInterval(ctx *Context)
}

// Observer receives a copy of per-interval results as the simulation runs;
// metrics collectors implement it.
type Observer interface {
	// ObserveInterval is called once per completed interval with the
	// arrival and service vectors of that interval. The slices are reused
	// between calls; observers must copy what they keep.
	ObserveInterval(k int64, arrivals, served []int)
}

// NetworkConfig assembles one simulated network (N, A, T, p) plus the policy
// under test.
type NetworkConfig struct {
	// Seed drives every random stream in the simulation.
	Seed uint64
	// Profile sets slot, airtime and interval durations.
	Profile phy.Profile
	// SuccessProb is the per-link delivery probability vector p (the
	// paper's static channel model). Leave nil when ChannelFactory is set.
	SuccessProb []float64
	// ChannelFactory, when non-nil, replaces the static model with a
	// time-varying one (e.g. medium.GilbertElliott) bound to the network's
	// own engine, whose deterministic RNG streams such models draw from.
	// Mutually exclusive with SuccessProb; the network size is then taken
	// from Required.
	ChannelFactory func(eng *sim.Engine, links int) (medium.Model, error)
	// Conflicts is the interference graph governing which links collide;
	// nil means the paper's fully-interfering channel, for which the medium
	// builds the complete graph. Non-complete graphs enable spatial reuse.
	Conflicts *medium.Graph
	// Arrivals generates A(k).
	Arrivals arrival.VectorProcess
	// Required is the per-link timely-throughput requirement vector q
	// (packets per interval).
	Required []float64
	// Protocol is the policy under test.
	Protocol Protocol
	// Observers receive per-interval results.
	Observers []Observer
	// Telemetry, when non-nil, is the metric registry the network and its
	// medium publish into; otherwise the network creates a private one.
	Telemetry *telemetry.Registry
}

// Network runs one protocol over the interval structure of the paper.
type Network struct {
	cfg        NetworkConfig
	eng        *sim.Engine
	med        *medium.Medium
	ledger     *debt.Ledger
	ctx        *Context
	cont       *Contention
	arrivals   []int
	intervals  int64
	reg        *telemetry.Registry
	inst       *instrumentation
	tapped     bool
	prio       priorityCarrier
	check      func() error
	arrivalRNG *sim.RNG
	// beginFn/endFn are the cached RunIntervals callbacks.
	beginFn, endFn func(int) error
}

// NewNetwork validates the configuration and assembles the simulation.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("mac: no protocol")
	}
	if cfg.Arrivals == nil {
		return nil, fmt.Errorf("mac: no arrival process")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, fmt.Errorf("mac: %w", err)
	}
	if cfg.SuccessProb != nil && cfg.ChannelFactory != nil {
		return nil, fmt.Errorf("mac: set only one of SuccessProb, ChannelFactory")
	}
	var n int
	if cfg.SuccessProb != nil {
		n = len(cfg.SuccessProb)
	} else {
		n = len(cfg.Required)
	}
	if n == 0 {
		return nil, fmt.Errorf("mac: no links configured")
	}
	if cfg.Arrivals.Links() != n {
		return nil, fmt.Errorf("mac: arrival process covers %d links, medium has %d",
			cfg.Arrivals.Links(), n)
	}
	if len(cfg.Required) != n {
		return nil, fmt.Errorf("mac: requirement vector has %d links, medium has %d",
			len(cfg.Required), n)
	}
	eng := sim.NewEngine(cfg.Seed)
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	var (
		med *medium.Medium
		err error
	)
	switch {
	case cfg.ChannelFactory != nil:
		var model medium.Model
		model, err = cfg.ChannelFactory(eng, n)
		if err != nil {
			return nil, fmt.Errorf("mac: channel factory: %w", err)
		}
		med, err = medium.NewWithModel(eng, n, model, medium.WithRegistry(reg), medium.WithGraph(cfg.Conflicts))
	default:
		med, err = medium.New(eng, cfg.SuccessProb, medium.WithRegistry(reg), medium.WithGraph(cfg.Conflicts))
	}
	if err != nil {
		return nil, fmt.Errorf("mac: %w", err)
	}
	ledger, err := debt.NewLedger(cfg.Required)
	if err != nil {
		return nil, fmt.Errorf("mac: %w", err)
	}
	cont, err := NewContention(eng, med, cfg.Profile.Slot)
	if err != nil {
		return nil, fmt.Errorf("mac: %w", err)
	}
	ctx := newContext(eng, med, cfg.Profile, ledger)
	ctx.cont = cont
	ctx.inst = newInstrumentation(reg, ctx)
	nw := &Network{
		cfg:      cfg,
		eng:      eng,
		med:      med,
		ledger:   ledger,
		ctx:      ctx,
		cont:     cont,
		arrivals: make([]int, n),
		reg:      reg,
		inst:     ctx.inst,
	}
	cont.SetBackoffObserver(nw.inst.observeBackoff)
	if carrier, ok := cfg.Protocol.(priorityCarrier); ok {
		nw.prio = carrier
	}
	nw.arrivalRNG = eng.RNG("arrivals")
	// The interval callbacks handed to Engine.RunIntervals are built once so
	// Run stays allocation-free per call.
	nw.beginFn = func(int) error { return nw.beginInterval() }
	nw.endFn = func(int) error { return nw.endInterval() }
	return nw, nil
}

// SetIntervalCheck installs a hook consulted at the end of every completed
// interval; a non-nil error aborts Run with it. The runtime monitor's Strict
// mode uses it to fail the run at the end of the first violating interval
// instead of letting a broken simulation grind on.
func (nw *Network) SetIntervalCheck(fn func() error) { nw.check = fn }

// Telemetry returns the registry the network's metrics live in.
func (nw *Network) Telemetry() *telemetry.Registry { return nw.reg }

// SetEventSink attaches (or replaces) the structured event stream: an event
// adapter probe that renders every typed record as a telemetry.Event on s.
// The adapter always runs before the probes AddProbe attached, so a probe
// that reports into the same stream writes after the event that triggered
// it. Call it before Run; events from intervals already simulated are not
// replayed. A nil sink detaches the stream.
func (nw *Network) SetEventSink(s telemetry.Sink) {
	in := nw.inst
	if in.events != nil {
		in.probes = in.probes[1:]
		in.events = nil
	}
	if s == nil {
		return
	}
	in.events = newEventProbe(s, nw.med.Graph())
	in.probes = slices.Insert(in.probes, 0, Probe(in.events))
	nw.tap()
}

// AddProbe appends p to the probe list; it sees every record from the next
// one on, after the event adapter and the probes attached before it. A probe
// that implements SlotProbe also joins the slot-probe list. Call it before
// Run; intervals already simulated are not replayed.
func (nw *Network) AddProbe(p Probe) {
	in := nw.inst
	in.probes = append(in.probes, p)
	nw.tap()
	sp, ok := p.(SlotProbe)
	if !ok {
		return
	}
	if in.slotProbes == nil {
		in.slotProbes = in.slotBuf[:0]
		nw.tapSlots()
	}
	in.slotProbes = append(in.slotProbes, sp)
}

// tap installs, once, the medium's trace hook, which hands Tx records to the
// probes. Nothing is installed before the first probe arrives, so an
// unobserved network pays no call for it. The closure reads the current
// list, so later probes need no re-installation. Backoff, swap and debt
// records reach the instrumentation directly: the coordinator's backoff
// observer is installed at construction, and the context's reporters call
// it.
//
// The medium's trace hook runs before the context's delivery bookkeeping,
// so a Tx record always precedes the served count it changes.
func (nw *Network) tap() {
	if nw.tapped {
		return
	}
	nw.tapped = true
	in, ctx := nw.inst, nw.ctx
	nw.med.SetTrace(func(tx medium.Transmission, outcome medium.Outcome) {
		for _, p := range in.probes {
			p.Tx(ctx.K, tx, outcome)
		}
	})
}

// tapSlots installs the contention coordinator's fire and sense observers,
// which hand Fire and Sense records to the slot probes. AddProbe calls it
// with the first slot probe, so a network whose probes read no per-slot
// record pays no call per counter expiry or carrier sense.
func (nw *Network) tapSlots() {
	in, ctx, eng := nw.inst, nw.ctx, nw.eng
	nw.cont.SetFireObserver(func(link int, started bool) {
		k, at := ctx.K, eng.Now()
		for _, p := range in.slotProbes {
			p.Fire(k, at, link, started)
		}
	})
	nw.cont.SetSenseObserver(func(link int, busy bool) {
		k, at := ctx.K, eng.Now()
		for _, p := range in.slotProbes {
			p.Sense(k, at, link, busy)
		}
	})
}

// SetJourneyTracer validates the packet-journey tracer against the network
// and attaches it as a probe. Call it before Run; intervals already
// simulated are not replayed. Each call attaches one more tracer.
func (nw *Network) SetJourneyTracer(t *journey.Tracer) error {
	if t == nil {
		return fmt.Errorf("mac: nil journey tracer")
	}
	if t.Links() != nw.med.Links() {
		return fmt.Errorf("mac: journey tracer covers %d links, network has %d",
			t.Links(), nw.med.Links())
	}
	nw.AddProbe(t)
	return nil
}

// The journey tracer reads the per-slot records.
var _ SlotProbe = (*journey.Tracer)(nil)

// Links returns N.
func (nw *Network) Links() int { return nw.med.Links() }

// Engine exposes the simulation engine (e.g. for protocols needing extra
// random streams in tests).
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// Medium exposes the shared channel.
func (nw *Network) Medium() *medium.Medium { return nw.med }

// Ledger exposes the delivery-debt ledger.
func (nw *Network) Ledger() *debt.Ledger { return nw.ledger }

// Contention exposes the slotted-backoff coordinator protocols may use.
func (nw *Network) Contention() *Contention { return nw.cont }

// Intervals returns the number of completed intervals.
func (nw *Network) Intervals() int64 { return nw.intervals }

// Run simulates the given number of additional intervals. It can be called
// repeatedly to continue the same simulation. The interval loop itself is
// the engine's batched RunIntervals advance; Run stays allocation-free per
// call so benchmark and hot-loop callers can invoke it per interval.
func (nw *Network) Run(intervals int) error {
	if intervals < 0 {
		return fmt.Errorf("mac: negative interval count %d", intervals)
	}
	wallStart := time.Now()
	err := nw.eng.RunIntervals(nw.cfg.Profile.Interval, intervals, nw.beginFn, nw.endFn)
	if elapsed := time.Since(wallStart).Seconds(); elapsed > 0 && intervals > 0 {
		nw.inst.intervalsPerS.Set(float64(intervals) / elapsed)
	}
	return err
}

// beginInterval opens interval k = nw.intervals: sample arrivals, reset the
// context, hand control to the protocol.
func (nw *Network) beginInterval() error {
	k := nw.intervals
	start := sim.Time(k) * nw.cfg.Profile.Interval
	end := start + nw.cfg.Profile.Interval
	if nw.eng.Now() != start {
		return fmt.Errorf("mac: interval %d starts at %v but clock is at %v",
			k, start, nw.eng.Now())
	}
	nw.cfg.Arrivals.Sample(nw.arrivalRNG, nw.arrivals)
	nw.ctx.beginInterval(k, start, end, nw.arrivals)
	if probes := nw.inst.probes; len(probes) > 0 {
		// σ at interval begin is the priority vector held *during* the
		// interval (swaps commit at its end).
		prio := nw.inst.priorities(nw.prio)
		for _, p := range probes {
			p.BeginInterval(k, start, end, nw.arrivals, prio)
		}
	}
	nw.cfg.Protocol.BeginInterval(nw.ctx)
	return nil
}

// endInterval closes the current interval after the engine drained its
// events: protocol commit, leak check, ledger update, observers, telemetry.
func (nw *Network) endInterval() error {
	k := nw.intervals
	nw.cfg.Protocol.EndInterval(nw.ctx)
	nw.cont.Clear()
	nw.inst.flushBackoffs()
	if pending := nw.eng.Pending(); pending != 0 {
		return fmt.Errorf("mac: protocol %s leaked %d events past interval %d",
			nw.cfg.Protocol.Name(), pending, k)
	}
	// The Debt record follows the ledger's Eq. 1 update; the journey tracer
	// closes its interval there, before the interval event, so live
	// /api/links readers see a board as fresh as the event stream.
	if err := nw.ledger.EndInterval(nw.ctx.served); err != nil {
		return err
	}
	nw.inst.observeDebts(k, nw.ctx.End, nw.ledger.Debts())
	for _, obs := range nw.cfg.Observers {
		obs.ObserveInterval(k, nw.arrivals, nw.ctx.served)
	}
	nw.inst.endInterval(nw, k, nw.ctx.End)
	nw.intervals++
	if nw.check != nil {
		if err := nw.check(); err != nil {
			return fmt.Errorf("mac: interval %d: %w", k, err)
		}
	}
	return nil
}
