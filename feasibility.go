package rtmac

import (
	"fmt"

	"rtmac/internal/feasibility"
	"rtmac/internal/mac"
)

// FeasibilityResult reports a feasibility assessment of a configuration's
// requirement vector.
type FeasibilityResult struct {
	// WorkloadSlots is the largest Σ_{n∈C} q_n/p_n over the maximal cliques
	// C of the conflict graph: the expected transmission slots per interval
	// the requirements demand of the busiest collision domain. On the
	// fully-interfering channel it is Σ q_n/p_n over all links.
	WorkloadSlots float64
	// CapacitySlots is the contention-free slots one interval offers.
	CapacitySlots int
	// NecessaryBoundsOK reports whether the cheap analytic necessary
	// conditions hold (q ≤ λ per link, each clique's workload ≤ capacity).
	// False means provably infeasible.
	NecessaryBoundsOK bool
	// NecessaryBoundsReason describes the violated bound, if any, or notes
	// that only some of a graph's many maximal cliques were checked.
	NecessaryBoundsReason string
	// ProbeDeficiency is the total deficiency the centralized LDF policy
	// left after the probe horizon.
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
// achievable by ANY policy on cfg's network: its conflict graph, its channel
// (a fading channel included) and its arrivals. It evaluates analytic
// necessary bounds, one per maximal clique of the conflict graph, and runs
// the centralized LDF policy as an empirical probe over probeIntervals (0
// selects a default horizon). The bounds are only necessary: passing them
// does not prove feasibility. On the fully-interfering channel LDF and the
// paper's DB-DP are feasibility-optimal, so a vector that probes feasible
// there is one DB-DP will fulfill as well. On a conflict graph that is not a
// union of cliques, LDF serves a greedy independent set, so the probe is a
// heuristic there. The protocol field of cfg is not used.
func CheckFeasibility(cfg Config, probeIntervals int) (FeasibilityResult, error) {
	nc, err := cfg.network()
	if err != nil {
		return FeasibilityResult{}, err
	}
	nc.Seed++ // the probe's streams differ from a simulation of cfg
	probe, err := feasibility.Probe(nc, feasibility.ProbeConfig{Intervals: probeIntervals})
	if err != nil {
		return FeasibilityResult{}, fmt.Errorf("rtmac: %w", err)
	}
	bounds, err := feasibility.NecessaryBounds(nc)
	if err != nil {
		return FeasibilityResult{}, fmt.Errorf("rtmac: %w", err)
	}
	res := FeasibilityResult{
		WorkloadSlots:         bounds.Workload,
		CapacitySlots:         cfg.Profile.SlotsPerInterval(),
		NecessaryBoundsOK:     bounds.OK,
		NecessaryBoundsReason: bounds.Reason,
		ProbeDeficiency:       probe.Deficiency,
		Feasible:              probe.Feasible && bounds.OK,
		PerLink:               make([]FeasibilityLink, len(cfg.Links)),
	}
	means := nc.Arrivals.Means()
	for i := range res.PerLink {
		res.PerLink[i] = FeasibilityLink{
			Link:        i,
			Required:    nc.Required[i],
			SuccessProb: bounds.SuccessProb[i],
			ArrivalRate: means[i],
		}
	}
	return res, nil
}

// CapacityFrontier binary-searches the largest factor γ such that scaling
// every link's requirement by γ still probes feasible. γ slightly above 1
// means the configuration has headroom; below 1 means it is over capacity.
func CapacityFrontier(cfg Config, probeIntervals int) (float64, error) {
	return frontier(cfg, nil, probeIntervals)
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
	return frontier(cfg, protocol.build, probeIntervals)
}

// frontier runs the capacity search on cfg's network with policy (nil: LDF).
func frontier(cfg Config, policy func(links int) (mac.Protocol, error), probeIntervals int) (float64, error) {
	nc, err := cfg.network()
	if err != nil {
		return 0, err
	}
	nc.Seed++ // the probe's streams differ from a simulation of cfg
	gamma, err := feasibility.Frontier(nc, feasibility.ProbeConfig{
		Intervals: probeIntervals,
		Protocol:  policy,
	}, 0.05, 4.0, 14)
	if err != nil {
		return 0, fmt.Errorf("rtmac: %w", err)
	}
	return gamma, nil
}

// RequirementVector computes cfg's per-link timely-throughput requirement
// vector q_n = ρ_n·λ_n — the SLO targets the watch plane defaults to — for a
// config that builds a network exactly as NewSimulation would.
func RequirementVector(cfg Config) ([]float64, error) {
	nc, err := cfg.network()
	if err != nil {
		return nil, err
	}
	if _, err := feasibility.NecessaryBounds(nc); err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	return nc.Required, nil
}

// SubsetBoundViolation scans every nonempty subset of cfg's links for a
// violated subset-level necessary bound, estimating each subset's usable
// slots by Monte Carlo over the arrivals (seeded by cfg.Seed), and describes
// the worst violation, or returns "" when there is none. It supports at most
// 14 links on the fully-interfering, static channel, and errs otherwise.
func SubsetBoundViolation(cfg Config) (string, error) {
	nc, err := cfg.network()
	if err != nil {
		return "", err
	}
	msg, err := feasibility.SubsetBoundViolation(nc, 4000)
	if err != nil {
		return "", fmt.Errorf("rtmac: %w", err)
	}
	return msg, nil
}
