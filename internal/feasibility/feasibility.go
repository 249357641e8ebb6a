// Package feasibility provides checks for whether a timely-throughput
// requirement vector q is achievable on a network (Definitions 3–4 of the
// paper). Every check takes the mac.NetworkConfig a simulation would run, so
// it sees the same conflict graph, channel, arrivals and requirements, and
// mac.NewNetwork validates that config when a check builds the network.
//
// Exact characterizations exist for special cases (Hou–Borkar–Kumar), but
// for the paper's general bounded i.i.d. arrivals the practical toolkit is:
//
//   - necessary workload bounds: delivering q_n packets per interval costs at
//     least q_n/p_n transmission slots in expectation, and the links of one
//     clique of the conflict graph never transmit concurrently, so each
//     maximal clique's workload must fit in one interval's slots (on the
//     fully-interfering channel the whole network is the one clique);
//     Monte-Carlo subset bounds sharpen this for a single collision domain;
//   - an empirical probe: run the feasibility-optimal LDF policy and test
//     whether the total deficiency vanishes. On a graph that is not a union
//     of cliques LDF serves a greedy independent set: a heuristic.
//
// The clique bounds are exact only on perfect graphs (clique unions,
// bipartite and chordal graphs). On a 5-cycle an independent set holds 2 of
// the 5 links, which no clique bound sees.
package feasibility

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"rtmac/internal/mac"
	"rtmac/internal/mac/ldf"
	"rtmac/internal/medium"
	"rtmac/internal/metrics"
	"rtmac/internal/sim"
)

// maxCliques caps the maximal cliques NecessaryBounds checks: a graph can
// have exponentially many (3^(N/3) for the Moon–Moser graph), and checking
// fewer cliques still gives a valid necessary condition.
const maxCliques = 4096

// build assembles cfg's network with the centralized LDF policy and no
// observers, so mac.NewNetwork validates cfg, and returns it with each link's
// long-run mean success probability, read from the channel model it built
// (the static p_n, or the fading model's stationary mean).
func build(cfg mac.NetworkConfig) (*mac.Network, []float64, error) {
	cfg.Protocol, cfg.Observers = ldf.NewLDF(), nil
	nw, err := mac.NewNetwork(cfg)
	if err != nil {
		return nil, nil, err
	}
	probs := make([]float64, nw.Links())
	for n := range probs {
		probs[n] = nw.Medium().SuccessProb(n)
	}
	return nw, probs, nil
}

// Bounds is the outcome of NecessaryBounds.
type Bounds struct {
	// SuccessProb is each link's mean success probability, from the network's
	// channel model.
	SuccessProb []float64
	// Workload is the largest Σ_{n∈C} q_n/p_n over the maximal cliques C
	// checked, in slots per interval (Σ q_n/p_n on the complete graph).
	Workload float64
	// OK is false when a bound is violated: the vector is infeasible.
	OK bool
	// Reason names the violated bound, or notes a capped clique enumeration.
	Reason string
}

// NecessaryBounds checks cheap necessary conditions on cfg's network: q_n ≤
// λ_n per link, and each maximal clique's expected workload Σ_{n∈C} q_n/p_n
// ≤ slots per interval. Passing these bounds does NOT prove feasibility.
func NecessaryBounds(cfg mac.NetworkConfig) (Bounds, error) {
	nw, probs, err := build(cfg)
	if err != nil {
		return Bounds{}, err
	}
	b := Bounds{SuccessProb: probs, OK: true}
	means := cfg.Arrivals.Means()
	for n, q := range cfg.Required {
		if q > means[n]+1e-12 {
			b.OK = false
			b.Reason = fmt.Sprintf("feasibility: link %d requires %v > arrival rate %v", n, q, means[n])
			break
		}
	}
	g := nw.Medium().Graph()
	var worst []int
	checked := 0 // exceeds maxCliques once the enumeration is cut short
	maximalCliques(g, func(clique []uint64) bool {
		if checked++; checked > maxCliques {
			return false
		}
		var links []int
		w := 0.0
		for i, word := range clique {
			for ; word != 0; word &= word - 1 {
				n := i*64 + bits.TrailingZeros64(word)
				links = append(links, n)
				w += cfg.Required[n] / probs[n]
			}
		}
		if worst == nil || w > b.Workload {
			b.Workload, worst = w, links
		}
		return true
	})
	slots := float64(cfg.Profile.SlotsPerInterval())
	switch {
	case !b.OK:
	case b.Workload > slots+1e-9:
		of := ""
		if !g.Complete() {
			of = fmt.Sprintf(" of clique %v", worst)
		}
		b.OK = false
		b.Reason = fmt.Sprintf("feasibility: expected workload %.3f slots%s exceeds %v available per interval",
			b.Workload, of, slots)
	case checked > maxCliques:
		b.Reason = fmt.Sprintf("feasibility: bounds checked on the first %d maximal cliques only (still necessary, but weaker)",
			maxCliques)
	}
	return b, nil
}

// maximalCliques calls fn with every maximal clique of g, as a bitset in the
// layout of Graph.ClosedRow, until fn returns false. It is Bron–Kerbosch
// with Tomita's pivot (the link of P ∪ X with the most neighbours in P),
// which keeps the search within the 3^(N/3) bound on the clique count. The
// complete graph yields its one clique after a single descent.
func maximalCliques(g *medium.Graph, fn func(clique []uint64) bool) {
	n, words := g.Links(), len(g.ClosedRow(0))
	has := func(set []uint64, v int) bool { return set[v/64]&(1<<(v%64)) != 0 }
	// rows[u] is u's open neighbourhood: its closed row without its own bit.
	rows, all := make([][]uint64, n), make([]uint64, words)
	for u := range rows {
		rows[u] = slices.Clone(g.ClosedRow(u))
		rows[u][u/64] &^= 1 << (u % 64)
		all[u/64] |= 1 << (u % 64)
	}
	var bk func(r, p, x []uint64) bool
	bk = func(r, p, x []uint64) bool {
		pivot, best := -1, -1
		for u := 0; u < n; u++ {
			if has(p, u) || has(x, u) {
				c := 0
				for i, nb := range rows[u] {
					c += bits.OnesCount64(p[i] & nb)
				}
				if c > best {
					pivot, best = u, c
				}
			}
		}
		if pivot < 0 {
			return fn(r)
		}
		for v := 0; v < n; v++ {
			if !has(p, v) || has(rows[pivot], v) {
				continue
			}
			r2, p2, x2 := slices.Clone(r), make([]uint64, words), make([]uint64, words)
			r2[v/64] |= 1 << (v % 64)
			for i, nb := range rows[v] {
				p2[i], x2[i] = p[i]&nb, x[i]&nb
			}
			if !bk(r2, p2, x2) {
				return false
			}
			p[v/64] &^= 1 << (v % 64)
			x[v/64] |= 1 << (v % 64)
		}
		return true
	}
	bk(make([]uint64, words), all, make([]uint64, words))
}

// ProbeResult reports one empirical feasibility probe.
type ProbeResult struct {
	// Deficiency is the total timely-throughput deficiency after the probe.
	Deficiency float64
	// Feasible is Deficiency <= the probe's tolerance.
	Feasible bool
	// Intervals is the probe length used.
	Intervals int
}

// ProbeConfig tunes the Monte-Carlo probe.
type ProbeConfig struct {
	// Intervals is the simulated horizon (default 3000).
	Intervals int
	// Tolerance is the deficiency threshold below which the probe declares
	// the vector feasible (default 0.01 packets/interval).
	Tolerance float64
	// Protocol builds the policy to probe with. The default is the
	// feasibility-optimal centralized LDF, making the probe a feasibility
	// test; substituting another policy turns Probe/Frontier into a
	// capacity measurement OF THAT POLICY (e.g. locating FCSMA's admissible
	// load, as the paper does in Fig. 3).
	Protocol func(links int) (mac.Protocol, error)
}

func (c *ProbeConfig) fill() {
	if c.Intervals <= 0 {
		c.Intervals = 3000
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.01
	}
	if c.Protocol == nil {
		c.Protocol = func(int) (mac.Protocol, error) { return ldf.NewLDF(), nil }
	}
}

// Probe runs the probe policy (LDF by default) on cfg's network, seeded by
// cfg.Seed, with its protocol and observers replaced, and reports whether
// the deficiency vanished. Because LDF is feasibility-optimal on the fully-interfering
// channel, a vanishing deficiency there is strong evidence of feasibility
// and a large residual one of infeasibility (up to finite-horizon noise,
// exactly as the paper notes for its own simulations).
func Probe(cfg mac.NetworkConfig, pc ProbeConfig) (ProbeResult, error) {
	pc.fill()
	col, err := metrics.NewCollector(cfg.Required)
	if err != nil {
		return ProbeResult{}, err
	}
	cfg.Protocol, err = pc.Protocol(len(cfg.Required))
	if err != nil {
		return ProbeResult{}, fmt.Errorf("feasibility: building probe protocol: %w", err)
	}
	cfg.Observers = []mac.Observer{col}
	nw, err := mac.NewNetwork(cfg)
	if err != nil {
		return ProbeResult{}, err
	}
	if err := nw.Run(pc.Intervals); err != nil {
		return ProbeResult{}, err
	}
	d := col.TotalDeficiency()
	return ProbeResult{
		Deficiency: d,
		Feasible:   d <= pc.Tolerance,
		Intervals:  pc.Intervals,
	}, nil
}

// Frontier binary-searches the largest scale γ ∈ [lo, hi] such that cfg
// with requirements γ·q still probes feasible. It is the tool used to locate
// "maximum admissible load" knees like the α* ≈ 0.62 the paper reads off its
// Figure 3.
func Frontier(cfg mac.NetworkConfig, pc ProbeConfig, lo, hi float64, iterations int) (float64, error) {
	if !(lo >= 0 && hi > lo) {
		return 0, fmt.Errorf("feasibility: invalid search range [%v, %v]", lo, hi)
	}
	if iterations <= 0 {
		iterations = 12
	}
	base := cfg.Required
	for i := 0; i < iterations; i++ {
		mid := (lo + hi) / 2
		cfg.Required = make([]float64, len(base))
		for n, q := range base {
			cfg.Required[n] = mid * q
		}
		res, err := Probe(cfg, pc)
		if err != nil {
			return 0, err
		}
		if res.Feasible {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// expectedServiceSlots estimates, by Monte Carlo, how many transmission
// slots per interval a work-conserving scheduler serving only the subset S
// can usefully occupy (arrival randomness can idle the channel even when
// capacity remains). Combined with the workload of S this yields the
// subset-level necessary condition Σ_{n∈S} q_n/p_n ≤ expectedServiceSlots(S).
// It returns the sample mean and its standard error.
func expectedServiceSlots(cfg mac.NetworkConfig, probs []float64, subset []int, seed uint64, samples int) (mean, stderr float64) {
	if samples <= 0 {
		samples = 2000
	}
	rng := sim.NewRNG(seed)
	slots := cfg.Profile.SlotsPerInterval()
	arrivals := make([]int, cfg.Arrivals.Links())
	total, squares := 0.0, 0.0
	for s := 0; s < samples; s++ {
		cfg.Arrivals.Sample(rng, arrivals)
		used := 0
		for _, n := range subset {
			for pkt := 0; pkt < arrivals[n] && used < slots; pkt++ {
				// Geometric number of attempts to deliver this packet,
				// truncated by the interval end.
				need := rng.Geometric(probs[n])
				if used+need > slots {
					used = slots
					break
				}
				used += need
			}
			if used >= slots {
				break
			}
		}
		total += float64(used)
		squares += float64(used) * float64(used)
	}
	k := float64(samples)
	mean = total / k
	if samples > 1 {
		stderr = math.Sqrt(max(squares-k*mean*mean, 0) / (k - 1) / k)
	}
	return mean, stderr
}

// subsetBoundSigmas is how many standard errors of the Monte-Carlo capacity
// estimate a subset's workload must exceed it by to count as a violation.
// The scan tests up to 2^14 subsets, so the margin is wide: sampling noise
// alone flags a subset whose workload equals its capacity with probability
// about 3·10⁻⁵.
const subsetBoundSigmas = 4

// SubsetBoundViolation scans all 2^N − 1 nonempty subsets (N ≤ maxExactLinks)
// for a violated subset-level necessary bound and returns a description of
// the worst violation, or the empty string when none is found; cfg.Seed
// seeds the Monte Carlo. A subset violates its bound only when its workload
// exceeds the capacity estimate by more than subsetBoundSigmas standard
// errors of the estimate. The bound models one collision domain with a static
// channel, so cfg must have the complete conflict graph and no channel
// factory.
func SubsetBoundViolation(cfg mac.NetworkConfig, samples int) (string, error) {
	if cfg.ChannelFactory != nil || (cfg.Conflicts != nil && !cfg.Conflicts.Complete()) {
		return "", fmt.Errorf("feasibility: subset bounds need the fully-interfering static channel")
	}
	_, probs, err := build(cfg)
	if err != nil {
		return "", err
	}
	n := len(probs)
	const maxExactLinks = 14
	if n > maxExactLinks {
		return "", fmt.Errorf("feasibility: subset scan supports up to %d links, got %d", maxExactLinks, n)
	}
	worst := ""
	worstGap := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		var subset []int
		workload := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, i)
				workload += cfg.Required[i] / probs[i]
			}
		}
		capacity, stderr := expectedServiceSlots(cfg, probs, subset, cfg.Seed, samples)
		if gap := workload - capacity; gap > subsetBoundSigmas*stderr+1e-6 && gap > worstGap {
			worstGap = gap
			worst = fmt.Sprintf("subset %v: workload %.3f > capacity %.3f ± %.3f (gap %.3f slots/interval)",
				subset, workload, capacity, stderr, gap)
		}
	}
	return worst, nil
}
