// Package rtmac is a simulation library for real-time wireless MAC protocols
// with per-packet deadlines over unreliable channels, reproducing
// "A Decentralized Medium Access Protocol for Real-Time Wireless Ad Hoc
// Networks With Unreliable Transmissions" (Hsieh & Hou, ICDCS 2018).
//
// The package simulates a fully-interfering wireless network at microsecond
// resolution: N links share one channel; packets arrive at interval
// boundaries and expire at the next boundary; transmissions collide when
// they overlap and otherwise succeed with per-link probability p_n.
//
// Four medium-access policies are provided:
//
//   - DBDP — the paper's contribution: a fully decentralized priority-based
//     protocol using collision-free backoff and carrier sensing, with
//     debt-driven Glauber reordering (feasibility-optimal).
//   - LDF/ELDF — the centralized feasibility-optimal comparator.
//   - FCSMA — the discretized debt-driven random-access baseline.
//   - DCF — 802.11-style binary-exponential-backoff CSMA/CA.
//
// A minimal session:
//
//	links := make([]rtmac.Link, 10)
//	for i := range links {
//		links[i] = rtmac.Link{
//			SuccessProb:   0.7,
//			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
//			DeliveryRatio: 0.99,
//		}
//	}
//	sim, err := rtmac.NewSimulation(rtmac.Config{
//		Seed:     1,
//		Profile:  rtmac.ControlProfile(),
//		Links:    links,
//		Protocol: rtmac.DBDP(),
//	})
//	if err != nil { ... }
//	if err := sim.Run(20000); err != nil { ... }
//	fmt.Println(sim.Report())
package rtmac

import (
	"fmt"
	"math"

	"rtmac/internal/arrival"
	"rtmac/internal/journey"
	"rtmac/internal/mac"
	"rtmac/internal/medium"
	"rtmac/internal/metrics"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Link configures one wireless link.
type Link struct {
	// SuccessProb is p_n ∈ (0, 1]: the probability a non-interfered
	// transmission is delivered.
	SuccessProb float64
	// Arrivals generates the link's per-interval packet arrivals.
	Arrivals Arrivals
	// DeliveryRatio is the required fraction ρ_n of arrivals that must be
	// delivered on time; the timely-throughput requirement is
	// q_n = ρ_n · λ_n. Mutually exclusive with Required.
	DeliveryRatio float64
	// Required sets q_n directly (packets per interval). Used when nonzero;
	// otherwise DeliveryRatio applies.
	Required float64
}

func (l Link) required() (float64, error) {
	switch {
	case !(l.Required >= 0 && l.Required < math.Inf(1)):
		return 0, fmt.Errorf("rtmac: requirement %v must be finite and nonnegative", l.Required)
	case !(l.DeliveryRatio >= 0 && l.DeliveryRatio <= 1):
		return 0, fmt.Errorf("rtmac: delivery ratio %v outside [0, 1]", l.DeliveryRatio)
	case l.Required > 0 && l.DeliveryRatio > 0:
		return 0, fmt.Errorf("rtmac: set either Required or DeliveryRatio, not both")
	case l.Required > 0:
		return l.Required, nil
	default:
		return l.DeliveryRatio * l.Arrivals.proc.Mean(), nil
	}
}

// Fading replaces the static per-link reliability with a network-wide
// Gilbert–Elliott model: every link hops independently between a Good and a
// Bad state (reliabilities PGood/PBad), flipping with the given per-Period
// probabilities. When set, the per-link SuccessProb fields are ignored —
// every link's long-run mean reliability is the model's stationary mean.
type Fading struct {
	PGood, PBad          float64
	GoodToBad, BadToGood float64
	Period               Time
}

// Mean returns the stationary mean reliability of the fading model.
func (f Fading) Mean() float64 {
	pBad := f.GoodToBad / (f.GoodToBad + f.BadToGood)
	return (1-pBad)*f.PGood + pBad*f.PBad
}

// Config assembles one simulation.
type Config struct {
	// Seed makes the run reproducible; two simulations with equal seeds and
	// configurations produce identical trajectories.
	Seed uint64
	// Profile sets PHY timing: slot, airtimes, and the interval/deadline.
	Profile Profile
	// Links lists the N links sharing the channel.
	Links []Link
	// Conflicts, when non-nil, replaces the fully-interfering channel with a
	// partial interference model: transmissions collide only on conflicting
	// links, and non-conflicting links transmit concurrently (spatial reuse).
	// Nil and CompleteConflicts(N) produce byte-identical runs.
	Conflicts *ConflictGraph
	// Protocol is the medium-access policy under test.
	Protocol Protocol
	// SnapshotEvery, when positive, records convergence snapshots each
	// given number of intervals (see Simulation.Snapshots).
	SnapshotEvery int
	// Fading, when non-nil, replaces the static channel with a
	// Gilbert–Elliott fading model (per-link SuccessProb is then ignored).
	Fading *Fading
	// Perturb, when non-nil, injects extra packet arrivals into exactly one
	// interval without consuming any RNG draws, so the run stays
	// byte-identical to the unperturbed one until that interval. It exists
	// to exercise rundiff's first-divergence pointer deterministically.
	Perturb *Perturbation
	// SLO, when non-nil, declares the run's conformance objectives for the
	// watch engine (EnableWatch). Nil is fine: the watch plane defaults to
	// the feasibility-derived requirement vector q_i with the standard miss
	// budget, so every scenario has SLOs for free.
	SLO *SLOConfig
}

// Perturbation is a one-off fault injection: Extra additional arrivals on
// Link at interval K (0-based). Extra defaults to 1 when zero.
type Perturbation struct {
	K     int64
	Link  int
	Extra int
}

// Simulation is one running network instance.
type Simulation struct {
	nw              *mac.Network
	col             *metrics.Collector
	req             []float64
	prot            mac.Protocol
	cfgProt         Protocol
	conflicts       *ConflictGraph
	profileInterval sim.Time
	events          *telemetry.JSONL
	manifest        *telemetry.Manifest
	journeys        *journey.Tracer
	health          *Health
	slo             *SLOConfig
	watch           *Watch
	// sinks holds every attached event consumer (JSONL streams, flight
	// recorder, Perfetto exporter, watch engine) in attach order; the
	// network sees them as one fan-out.
	sinks []telemetry.Sink
}

// addSink attaches one more event consumer, rebuilding the network's fan-out.
func (s *Simulation) addSink(sink telemetry.Sink) {
	s.sinks = append(s.sinks, sink)
	s.nw.SetEventSink(telemetry.MultiSink(append([]telemetry.Sink(nil), s.sinks...)))
}

// NewSimulation validates cfg and builds the network.
func NewSimulation(cfg Config) (*Simulation, error) {
	if len(cfg.Links) == 0 {
		return nil, fmt.Errorf("rtmac: no links configured")
	}
	if cfg.Protocol.build == nil {
		return nil, fmt.Errorf("rtmac: no protocol configured")
	}
	if cfg.Profile.p.Name == "" {
		return nil, fmt.Errorf("rtmac: no profile configured (use VideoProfile, ControlProfile or CustomProfile)")
	}
	if err := cfg.Conflicts.validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Links)
	probs := make([]float64, n)
	req := make([]float64, n)
	procs := make([]arrival.Process, n)
	for i, l := range cfg.Links {
		if l.Arrivals.proc == nil {
			return nil, fmt.Errorf("rtmac: link %d has no arrival process", i)
		}
		q, err := l.required()
		if err != nil {
			return nil, fmt.Errorf("rtmac: link %d: %w", i, err)
		}
		probs[i] = l.SuccessProb
		req[i] = q
		procs[i] = l.Arrivals.proc
	}
	av, err := arrival.NewIndependent(procs...)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	var arrivals arrival.VectorProcess = av
	if p := cfg.Perturb; p != nil {
		extra := p.Extra
		if extra == 0 {
			extra = 1
		}
		arrivals, err = arrival.NewPerturb(av, p.K, p.Link, extra)
		if err != nil {
			return nil, fmt.Errorf("rtmac: %w", err)
		}
	}
	var colOpts []metrics.Option
	if cfg.SnapshotEvery > 0 {
		colOpts = append(colOpts, metrics.WithSeries(cfg.SnapshotEvery))
	}
	col, err := metrics.NewCollector(req, colOpts...)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	prot, err := cfg.Protocol.build(n)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	nwCfg := mac.NetworkConfig{
		Seed:      cfg.Seed,
		Profile:   cfg.Profile.p,
		Conflicts: cfg.Conflicts.graph(),
		Arrivals:  arrivals,
		Required:  req,
		Protocol:  prot,
		Observers: []mac.Observer{col},
	}
	if cfg.Fading != nil {
		f := *cfg.Fading
		nwCfg.ChannelFactory = func(eng *sim.Engine, links int) (medium.Model, error) {
			return medium.NewGilbertElliott(eng, links, f.PGood, f.PBad,
				f.GoodToBad, f.BadToGood, f.Period)
		}
	} else {
		nwCfg.SuccessProb = probs
	}
	nw, err := mac.NewNetwork(nwCfg)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	if cfg.SLO != nil {
		if err := cfg.SLO.validate(n); err != nil {
			return nil, fmt.Errorf("rtmac: %w", err)
		}
	}
	manifest := telemetry.NewManifest("rtmac", cfg.Seed)
	manifest.Protocol = prot.Name()
	manifest.Profile = cfg.Profile.p.Name
	manifest.Links = n
	return &Simulation{
		nw:              nw,
		col:             col,
		req:             req,
		prot:            prot,
		cfgProt:         cfg.Protocol,
		conflicts:       cfg.Conflicts,
		profileInterval: cfg.Profile.p.Interval,
		manifest:        manifest,
		slo:             cfg.SLO,
	}, nil
}

// Run simulates the given number of additional intervals; it can be called
// repeatedly to extend the same run.
func (s *Simulation) Run(intervals int) error {
	return s.nw.Run(intervals)
}

// Intervals returns the number of completed intervals.
func (s *Simulation) Intervals() int64 { return s.nw.Intervals() }

// Now returns the current simulated time.
func (s *Simulation) Now() sim.Time { return s.nw.Engine().Now() }

// Snapshots returns the recorded convergence checkpoints (empty unless
// Config.SnapshotEvery was set).
func (s *Simulation) Snapshots() []Snapshot {
	raw := s.col.Series()
	out := make([]Snapshot, len(raw))
	for i, r := range raw {
		out[i] = Snapshot{
			Intervals:  r.Intervals,
			Cumulative: append([]float64(nil), r.Throughput...),
			Windowed:   append([]float64(nil), r.Windowed...),
		}
	}
	return out
}

// Snapshot is one convergence checkpoint: per-link timely-throughput, both
// cumulative since time zero and windowed since the previous checkpoint.
type Snapshot struct {
	Intervals  int64
	Cumulative []float64
	Windowed   []float64
}

// Profile wraps the PHY timing parameters.
type Profile struct {
	p phy.Profile
}

// VideoProfile returns the paper's real-time video scenario: 1500 B packets
// at 54 Mbps (≈330 µs per exchange) with a 20 ms deadline.
func VideoProfile() Profile { return Profile{p: phy.Video()} }

// ControlProfile returns the paper's ultra-low-latency control scenario:
// 100 B packets (≈120 µs per exchange) with a 2 ms deadline.
func ControlProfile() Profile { return Profile{p: phy.Control()} }

// CustomProfile computes a profile from first principles for the given
// payload size, PHY rate and deadline. One data frame must fit in the
// deadline.
func CustomProfile(name string, payloadBytes int, rateMbps float64, deadline sim.Time) (Profile, error) {
	if payloadBytes < 0 {
		return Profile{}, fmt.Errorf("rtmac: negative payload size %d", payloadBytes)
	}
	if !(rateMbps > 0) || math.IsInf(rateMbps, 1) {
		return Profile{}, fmt.Errorf("rtmac: PHY rate %v Mbps is not positive and finite", rateMbps)
	}
	if deadline <= 0 {
		return Profile{}, fmt.Errorf("rtmac: non-positive deadline %v", deadline)
	}
	// Bounding the data frame's airtime in floating point first keeps the
	// integer airtime arithmetic from overflowing on a huge payload or a
	// vanishing rate (Mbps is bits per µs).
	bits := 8*(float64(payloadBytes)+phy.MACDataOverheadBytes) + phy.ServiceTailBits
	if bits >= math.MaxInt || float64(phy.PLCPOverhead)+bits/rateMbps > float64(deadline) {
		return Profile{}, fmt.Errorf("rtmac: a %d B payload at %v Mbps does not fit in the %v deadline",
			payloadBytes, rateMbps, deadline)
	}
	p := phy.Custom(name, payloadBytes, rateMbps, deadline)
	if err := p.Validate(); err != nil {
		return Profile{}, fmt.Errorf("rtmac: %w", err)
	}
	return Profile{p: p}, nil
}

// SlotsPerInterval returns how many data exchanges fit in one interval under
// a contention-free schedule.
func (p Profile) SlotsPerInterval() int { return p.p.SlotsPerInterval() }

// Name returns the profile's label ("video", "control", or a custom name).
func (p Profile) Name() string { return p.p.Name }

// Interval returns the deadline T.
func (p Profile) Interval() sim.Time { return p.p.Interval }

// Millisecond re-exports the simulated-time unit for CustomProfile callers.
const Millisecond = sim.Millisecond

// Microsecond re-exports the simulated-time unit.
const Microsecond = sim.Microsecond

// Time is a simulated instant or duration in microseconds.
type Time = sim.Time
