package rtmac

import (
	"fmt"

	"rtmac/internal/arrival"
	"rtmac/internal/feasibility"
)

// FeasibilityResult reports a feasibility assessment of a configuration's
// requirement vector.
type FeasibilityResult struct {
	// WorkloadSlots is Σ q_n/p_n, the expected transmission slots per
	// interval the requirements demand.
	WorkloadSlots float64
	// CapacitySlots is the contention-free slots one interval offers.
	CapacitySlots int
	// NecessaryBoundsOK reports whether the cheap analytic necessary
	// conditions hold (q ≤ λ per link, workload ≤ capacity). False means
	// provably infeasible.
	NecessaryBoundsOK bool
	// NecessaryBoundsReason describes the violated bound, if any.
	NecessaryBoundsReason string
	// ProbeDeficiency is the total deficiency the feasibility-optimal
	// centralized LDF policy left after the probe horizon.
	ProbeDeficiency float64
	// Feasible is the empirical verdict: the probe deficiency vanished.
	Feasible bool
	// PerLink is the requirement vector with its inputs, one entry per link
	// — the machine-readable SLO targets `feascheck -json` emits and
	// `rtmacwatch -slo` consumes.
	PerLink []FeasibilityLink
}

// FeasibilityLink is one link's requirement-vector entry.
type FeasibilityLink struct {
	// Link is the link index.
	Link int `json:"link"`
	// Required is q_n = ρ_n·λ_n, delivered packets per interval.
	Required float64 `json:"required"`
	// SuccessProb is the per-transmission delivery probability the
	// assessment used (the fading model's stationary mean under fading).
	SuccessProb float64 `json:"success_prob"`
	// ArrivalRate is λ_n, expected packet arrivals per interval.
	ArrivalRate float64 `json:"arrival_rate"`
}

// CheckFeasibility assesses whether cfg's timely-throughput requirements are
// achievable by ANY policy: it evaluates analytic necessary bounds and runs
// the feasibility-optimal centralized LDF policy as an empirical probe over
// probeIntervals (0 selects a default horizon). Because the paper's DB-DP is
// feasibility-optimal, a vector that probes feasible here is one DB-DP will
// fulfill as well.
func CheckFeasibility(cfg Config, probeIntervals int) (FeasibilityResult, error) {
	problem, err := toProblem(cfg)
	if err != nil {
		return FeasibilityResult{}, err
	}
	res := FeasibilityResult{
		WorkloadSlots:     feasibility.TotalWorkload(problem),
		CapacitySlots:     cfg.Profile.SlotsPerInterval(),
		NecessaryBoundsOK: true,
		PerLink:           make([]FeasibilityLink, len(cfg.Links)),
	}
	for i := range cfg.Links {
		res.PerLink[i] = FeasibilityLink{
			Link:        i,
			Required:    problem.Required[i],
			SuccessProb: problem.SuccessProb[i],
			ArrivalRate: cfg.Links[i].Arrivals.proc.Mean(),
		}
	}
	if err := feasibility.NecessaryBounds(problem); err != nil {
		res.NecessaryBoundsOK = false
		res.NecessaryBoundsReason = err.Error()
	}
	probe, err := feasibility.Probe(problem, feasibility.ProbeConfig{
		Seed:      cfg.Seed + 1,
		Intervals: probeIntervals,
	})
	if err != nil {
		return FeasibilityResult{}, fmt.Errorf("rtmac: %w", err)
	}
	res.ProbeDeficiency = probe.Deficiency
	res.Feasible = probe.Feasible && res.NecessaryBoundsOK
	return res, nil
}

// CapacityFrontier binary-searches the largest factor γ such that scaling
// every link's requirement by γ still probes feasible. γ slightly above 1
// means the configuration has headroom; below 1 means it is over capacity.
func CapacityFrontier(cfg Config, probeIntervals int) (float64, error) {
	problem, err := toProblem(cfg)
	if err != nil {
		return 0, err
	}
	gamma, err := feasibility.Frontier(problem, feasibility.ProbeConfig{
		Seed:      cfg.Seed + 1,
		Intervals: probeIntervals,
	}, 0.05, 4.0, 14)
	if err != nil {
		return 0, fmt.Errorf("rtmac: %w", err)
	}
	return gamma, nil
}

// ProtocolCapacity binary-searches the largest requirement scale γ that the
// GIVEN policy (not the optimal one) still fulfills on cfg's network. The
// gap between ProtocolCapacity and CapacityFrontier is exactly the capacity
// a sub-optimal policy wastes — e.g. the paper's observation that FCSMA
// supports only ≈ 70 % of the admissible load is
// ProtocolCapacity(FCSMA) / CapacityFrontier ≈ 0.7.
func ProtocolCapacity(cfg Config, protocol Protocol, probeIntervals int) (float64, error) {
	if protocol.build == nil {
		return 0, fmt.Errorf("rtmac: no protocol configured")
	}
	problem, err := toProblem(cfg)
	if err != nil {
		return 0, err
	}
	gamma, err := feasibility.Frontier(problem, feasibility.ProbeConfig{
		Seed:      cfg.Seed + 1,
		Intervals: probeIntervals,
		Protocol:  protocol.build,
	}, 0.05, 4.0, 14)
	if err != nil {
		return 0, fmt.Errorf("rtmac: %w", err)
	}
	return gamma, nil
}

// RequirementVector computes cfg's per-link timely-throughput requirement
// vector q_n = ρ_n·λ_n — the SLO targets the watch plane defaults to —
// reusing the same validation path as NewSimulation.
func RequirementVector(cfg Config) ([]float64, error) {
	problem, err := toProblem(cfg)
	if err != nil {
		return nil, err
	}
	return problem.Required, nil
}

// toProblem converts a public configuration into the internal feasibility
// problem, reusing the same validation path as NewSimulation.
func toProblem(cfg Config) (feasibility.Problem, error) {
	if len(cfg.Links) == 0 {
		return feasibility.Problem{}, fmt.Errorf("rtmac: no links configured")
	}
	if cfg.Profile.p.Name == "" {
		return feasibility.Problem{}, fmt.Errorf("rtmac: no profile configured")
	}
	if err := cfg.Conflicts.validate(); err != nil {
		return feasibility.Problem{}, err
	}
	n := len(cfg.Links)
	probs := make([]float64, n)
	req := make([]float64, n)
	procs := make([]arrival.Process, n)
	for i, l := range cfg.Links {
		if l.Arrivals.proc == nil {
			return feasibility.Problem{}, fmt.Errorf("rtmac: link %d has no arrival process", i)
		}
		q, err := l.required()
		if err != nil {
			return feasibility.Problem{}, fmt.Errorf("rtmac: link %d: %w", i, err)
		}
		probs[i] = l.SuccessProb
		if cfg.Fading != nil {
			// The feasibility probe works in expectation; the fading
			// model's stationary mean is the right marginal.
			probs[i] = cfg.Fading.Mean()
		}
		req[i] = q
		procs[i] = l.Arrivals.proc
	}
	av, err := arrival.NewIndependent(procs...)
	if err != nil {
		return feasibility.Problem{}, fmt.Errorf("rtmac: %w", err)
	}
	return feasibility.Problem{
		Profile:     cfg.Profile.p,
		SuccessProb: probs,
		Arrivals:    av,
		Required:    req,
	}, nil
}
