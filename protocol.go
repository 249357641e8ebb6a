package rtmac

import (
	"fmt"
	"math"

	"rtmac/internal/core"
	"rtmac/internal/debt"
	"rtmac/internal/mac"
	"rtmac/internal/mac/dcf"
	"rtmac/internal/mac/fcsma"
	"rtmac/internal/mac/framecsma"
	"rtmac/internal/mac/ldf"
	"rtmac/internal/mac/tdma"
	"rtmac/internal/perm"
)

// Protocol selects a medium-access policy. Construct one with DBDP, LDF,
// ELDF, FCSMA or DCF; the zero value is invalid.
type Protocol struct {
	label string
	build func(n int) (mac.Protocol, error)
	// collisionFree marks policies the paper proves (or constructs to be)
	// collision-free; the runtime monitor arms its collision_free checker
	// for them.
	collisionFree bool
	// collisionFreeOnGraph marks the subset that stays collision-free on an
	// arbitrary (non-complete) conflict graph: LDF/ELDF serve a greedy
	// independent set, TDMA schedules color classes, and frame-based CSMA
	// stays globally sequential. DB-DP is excluded — its injective-counter
	// argument is a complete-graph property, and per-neighborhood local
	// ranks in unequal neighborhoods can coincide.
	collisionFreeOnGraph bool
	// swapPairs is the per-interval swap allowance of the DP family (zero
	// for policies without priority swapping).
	swapPairs int
}

// Label returns the protocol's display name.
func (p Protocol) Label() string { return p.label }

// CollisionFree reports whether the policy is collision-free by
// construction (DB-DP, LDF/ELDF, TDMA, frame-based CSMA); random-access
// baselines (FCSMA, DCF) collide by design.
func (p Protocol) CollisionFree() bool { return p.collisionFree }

// DBDPOption customizes the DB-DP protocol.
type DBDPOption func(*dbdpConfig)

type dbdpConfig struct {
	pairs    int
	frozen   bool
	initial  []int
	f        InfluenceFunc
	r        float64
	constMu  float64
	useConst bool
	learned  bool
}

// WithSwapPairs enables the paper's Remark-6 extension: m non-adjacent
// priority pairs are candidates for swapping each interval instead of one.
func WithSwapPairs(m int) DBDPOption {
	return func(c *dbdpConfig) { c.pairs = m }
}

// WithFrozenPriorities disables reordering entirely (the paper's Figure 6
// setup: a fixed priority ordering).
func WithFrozenPriorities() DBDPOption {
	return func(c *dbdpConfig) { c.frozen = true }
}

// WithInitialPriorities sets σ(0); priorities[link] ∈ {1..N} must form a
// permutation, 1 being the highest priority.
func WithInitialPriorities(priorities []int) DBDPOption {
	return func(c *dbdpConfig) { c.initial = append([]int(nil), priorities...) }
}

// WithInfluence overrides the debt influence function and the Glauber
// constant R of Eq. 14. The paper's evaluation uses
// f(x) = log(max{1, 100(x+1)}) and R = 10, which are the defaults.
func WithInfluence(f InfluenceFunc, r float64) DBDPOption {
	return func(c *dbdpConfig) { c.f = f; c.r = r }
}

// WithConstantMu replaces the debt-driven bias with a fixed µ for every
// link — the generic DP protocol of Section IV, whose priority process has
// the Proposition-2 product-form stationary distribution.
func WithConstantMu(mu float64) DBDPOption {
	return func(c *dbdpConfig) { c.constMu = mu; c.useConst = true }
}

// WithLearnedReliability removes the channel-state oracle: instead of being
// given p_n, each link estimates it online from its own transmission
// outcomes (Beta-Bernoulli posterior mean) — the paper's "learning from the
// empirical results of past transmissions" option.
func WithLearnedReliability() DBDPOption {
	return func(c *dbdpConfig) { c.learned = true }
}

// DBDP returns the paper's debt-based decentralized priority protocol.
func DBDP(opts ...DBDPOption) Protocol {
	cfg := dbdpConfig{pairs: 1, f: PaperInfluence(), r: 10}
	for _, opt := range opts {
		opt(&cfg)
	}
	return Protocol{
		label:         "DB-DP",
		collisionFree: true,
		swapPairs:     cfg.pairs,
		build: func(n int) (mac.Protocol, error) {
			var coreOpts []core.Option
			if cfg.pairs != 1 {
				coreOpts = append(coreOpts, core.WithPairs(cfg.pairs))
			}
			if cfg.frozen {
				coreOpts = append(coreOpts, core.WithFrozenPriorities())
			}
			if cfg.initial != nil {
				prio, err := perm.New(cfg.initial)
				if err != nil {
					return nil, err
				}
				coreOpts = append(coreOpts, core.WithInitialPriorities(prio))
			}
			if !(cfg.r > 0 && cfg.r < math.Inf(1)) {
				return nil, fmt.Errorf("rtmac: Glauber constant R must be finite and positive, got %v", cfg.r)
			}
			if err := cfg.f.check(); err != nil {
				return nil, err
			}
			var policy core.MuPolicy
			switch {
			case cfg.useConst:
				if !(cfg.constMu >= 0 && cfg.constMu <= 1) {
					return nil, fmt.Errorf("rtmac: constant µ %v outside [0, 1]", cfg.constMu)
				}
				policy = core.ConstantMu{Value: cfg.constMu}
			case cfg.learned:
				learned, err := core.NewEstimatedDebtGlauber(n)
				if err != nil {
					return nil, err
				}
				learned.F = cfg.f.f
				learned.R = cfg.r
				policy = learned
			default:
				policy = core.DebtGlauber{F: cfg.f.f, R: cfg.r}
			}
			return core.New(n, policy, coreOpts...)
		},
	}
}

// LDF returns the centralized Largest-Debt-First comparator.
func LDF() Protocol {
	return Protocol{
		label:                "LDF",
		collisionFree:        true,
		collisionFreeOnGraph: true,
		build:                func(int) (mac.Protocol, error) { return ldf.NewLDF(), nil },
	}
}

// ELDF returns the extended LDF policy with a custom debt influence
// function (Algorithm 1).
func ELDF(f InfluenceFunc) Protocol {
	return Protocol{
		label:                fmt.Sprintf("ELDF[%s]", f.f.Name()),
		collisionFree:        true,
		collisionFreeOnGraph: true,
		build: func(int) (mac.Protocol, error) {
			if err := f.check(); err != nil {
				return nil, err
			}
			return ldf.New(f.f), nil
		},
	}
}

// FCSMA returns the discretized fast-CSMA baseline with its calibrated
// default contention-window discretization.
func FCSMA() Protocol {
	return Protocol{
		label: "FCSMA",
		build: func(int) (mac.Protocol, error) { return fcsma.New(fcsma.DefaultConfig()) },
	}
}

// FCSMAWith returns the FCSMA baseline with an explicit discretization:
// debt is quantized into `levels` sections of width `quantum`, section l
// using contention window max(cwMin, cwMax >> l).
func FCSMAWith(cwMin, cwMax, levels int, quantum float64) Protocol {
	return Protocol{
		label: "FCSMA",
		build: func(int) (mac.Protocol, error) {
			return fcsma.New(fcsma.Config{CWMin: cwMin, CWMax: cwMax, Levels: levels, Quantum: quantum})
		},
	}
}

// DCF returns the 802.11-style binary-exponential-backoff baseline.
func DCF() Protocol {
	return Protocol{
		label: "DCF",
		build: func(n int) (mac.Protocol, error) { return dcf.New(n, dcf.DefaultConfig()) },
	}
}

// FrameCSMA returns the frame-based CSMA baseline (Lu et al., contrasted in
// the paper's introduction): per-frame open-loop schedules with a control
// phase, feasibility-optimal only over reliable channels because the
// schedule cannot adapt to within-frame losses.
func FrameCSMA() Protocol {
	return Protocol{
		label:                "Frame-CSMA",
		collisionFree:        true,
		collisionFreeOnGraph: true,
		build:                func(int) (mac.Protocol, error) { return framecsma.New(framecsma.DefaultConfig()) },
	}
}

// TDMA returns a static round-robin time-division baseline: collision-free
// like DB-DP but with a fixed slot allocation that ignores debts, arrivals
// and channel quality — the zero-adaptivity reference point.
func TDMA() Protocol {
	return Protocol{
		label:                "TDMA",
		collisionFree:        true,
		collisionFreeOnGraph: true,
		build:                func(int) (mac.Protocol, error) { return tdma.New(true), nil },
	}
}

// InfluenceFunc wraps a debt influence function (Definition 6).
type InfluenceFunc struct {
	f debt.InfluenceFunc
}

// Name identifies the function.
func (f InfluenceFunc) Name() string { return f.f.Name() }

// Eval applies the function (negative debts clamp to zero).
func (f InfluenceFunc) Eval(x float64) float64 { return f.f.Eval(x) }

// check rejects the zero value, which has no function to apply.
func (f InfluenceFunc) check() error {
	if f.f.IsZero() {
		return fmt.Errorf("rtmac: zero-value InfluenceFunc; build one with IdentityInfluence, PaperInfluence, LogInfluence or PowerInfluence")
	}
	return nil
}

// IdentityInfluence returns f(x) = x (turns ELDF into classical LDF).
func IdentityInfluence() InfluenceFunc { return InfluenceFunc{f: debt.Identity()} }

// PaperInfluence returns the paper's evaluation choice
// f(x) = log(max{1, 100(x+1)}).
func PaperInfluence() InfluenceFunc { return InfluenceFunc{f: debt.PaperLog()} }

// LogInfluence returns f(x) = log(max{1, scale·(x+1)}).
func LogInfluence(scale float64) (InfluenceFunc, error) {
	f, err := debt.Log(scale)
	if err != nil {
		return InfluenceFunc{}, fmt.Errorf("rtmac: %w", err)
	}
	return InfluenceFunc{f: f}, nil
}

// PowerInfluence returns f(x) = x^m for m ≥ 0.
func PowerInfluence(m float64) (InfluenceFunc, error) {
	f, err := debt.Power(m)
	if err != nil {
		return InfluenceFunc{}, fmt.Errorf("rtmac: %w", err)
	}
	return InfluenceFunc{f: f}, nil
}

// Priorities returns the DB-DP protocol's current priority vector
// (priorities[link] = index, 1 highest), or nil when the simulation runs a
// policy without explicit priorities (LDF, FCSMA, DCF).
func (s *Simulation) Priorities() []int {
	type priorityCarrier interface{ Priorities() perm.Permutation }
	if pc, ok := s.prot.(priorityCarrier); ok {
		return pc.Priorities()
	}
	return nil
}
