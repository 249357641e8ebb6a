package perm

import (
	"fmt"
	"math"
)

// Chain is the finite Markov chain of the DP protocol's priority process
// {σ(k)} over the state space S_N, built per Eq. 9 of the paper:
//
//	X_{σ,σ̂} = (1−µ_i)µ_j / (N−1) · P{R_i + R_j ≥ 1}
//
// when σ̂ is an adjacent transposition of σ exchanging link i (moving down)
// and link j (moving up); all other off-diagonal entries are zero.
type Chain struct {
	n      int
	states []Permutation
	// matrix[a][b] is the one-step probability from states[a] to states[b].
	matrix [][]float64
}

// NewChain builds the transition matrix for N links with per-link swap
// biases mu (µ_n ∈ (0,1)) and txProb = P{R_i + R_j ≥ 1}, the probability
// that at least one swap candidate transmits in the interval. With the
// DP protocol's empty-packet rule and condition (C1), txProb is typically
// close to 1; pass 1 for the idealized protocol.
func NewChain(mu []float64, txProb float64) (*Chain, error) {
	n := len(mu)
	if n < 2 {
		return nil, fmt.Errorf("perm: chain needs at least 2 links, got %d", n)
	}
	for i, m := range mu {
		if m <= 0 || m >= 1 {
			return nil, fmt.Errorf("perm: µ_%d = %v outside (0, 1)", i, m)
		}
	}
	if txProb < 0 || txProb > 1 {
		return nil, fmt.Errorf("perm: txProb %v outside [0, 1]", txProb)
	}
	states, err := Enumerate(n)
	if err != nil {
		return nil, err
	}
	total := len(states)
	matrix := make([][]float64, total)
	for a, sigma := range states {
		row := make([]float64, total)
		var off float64
		// From sigma, exactly one adjacent pair (c, c+1) is selected
		// uniformly; the swap commits with probability (1−µ_down)·µ_up·txProb.
		for c := 1; c < n; c++ {
			down := sigma.LinkAtPriority(c)
			up := sigma.LinkAtPriority(c + 1)
			pSwap := (1 - mu[down]) * mu[up] * txProb / float64(n-1)
			if pSwap == 0 {
				continue
			}
			target := sigma.SwapAtPriority(c)
			row[target.Rank()] += pSwap
			off += pSwap
		}
		row[a] = 1 - off
		matrix[a] = row
	}
	return &Chain{n: n, states: states, matrix: matrix}, nil
}

// Links returns N.
func (c *Chain) Links() int { return c.n }

// RowSumError returns the largest deviation of any row sum from 1.
func (c *Chain) RowSumError() float64 {
	worst := 0.0
	for _, row := range c.matrix {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if d := math.Abs(sum - 1); d > worst {
			worst = d
		}
	}
	return worst
}

// Irreducible reports whether every state can reach every other state
// through positive-probability transitions (Lemma 4 of the paper). It runs
// one BFS from state 0 on the forward graph and one on the reverse graph.
func (c *Chain) Irreducible() bool {
	return c.reachesAll(false) && c.reachesAll(true)
}

func (c *Chain) reachesAll(reverse bool) bool {
	total := len(c.states)
	seen := make([]bool, total)
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for b := 0; b < total; b++ {
			var edge float64
			if reverse {
				edge = c.matrix[b][a]
			} else {
				edge = c.matrix[a][b]
			}
			if a != b && edge > 0 && !seen[b] {
				seen[b] = true
				count++
				queue = append(queue, b)
			}
		}
	}
	return count == total
}

// Aperiodic reports whether some state has a positive self-loop, which
// together with irreducibility implies aperiodicity.
func (c *Chain) Aperiodic() bool {
	for a := range c.matrix {
		if c.matrix[a][a] > 0 {
			return true
		}
	}
	return false
}

// DetailedBalanceError returns the largest violation of
// π(σ)X_{σ,σ̂} = π(σ̂)X_{σ̂,σ} over all state pairs, for the given
// distribution indexed by state rank.
func (c *Chain) DetailedBalanceError(pi []float64) (float64, error) {
	if len(pi) != len(c.states) {
		return 0, fmt.Errorf("perm: distribution has %d entries, want %d", len(pi), len(c.states))
	}
	worst := 0.0
	for a := range c.matrix {
		for b := a + 1; b < len(c.matrix); b++ {
			flow := pi[a]*c.matrix[a][b] - pi[b]*c.matrix[b][a]
			if d := math.Abs(flow); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// StationaryByPower iterates the chain from the uniform distribution until
// the update moves no coordinate by more than tol, returning the empirical
// fixed point. It is a cross-check against the closed forms below.
func (c *Chain) StationaryByPower(tol float64, maxIter int) []float64 {
	total := len(c.states)
	pi := make([]float64, total)
	for i := range pi {
		pi[i] = 1 / float64(total)
	}
	next := make([]float64, total)
	for iter := 0; iter < maxIter; iter++ {
		for b := range next {
			next[b] = 0
		}
		for a, row := range c.matrix {
			pa := pi[a]
			if pa == 0 {
				continue
			}
			for b, x := range row {
				if x > 0 {
					next[b] += pa * x
				}
			}
		}
		worst := 0.0
		for i := range pi {
			if d := math.Abs(next[i] - pi[i]); d > worst {
				worst = d
			}
		}
		pi, next = next, pi
		if worst <= tol {
			break
		}
	}
	return pi
}

// StationaryFromMu returns the closed-form stationary distribution of
// Proposition 2, indexed by state rank:
//
//	π*(σ) ∝ Π_n (µ_n / (1−µ_n))^{g(σ_n)},  g(j) = N − j.
func StationaryFromMu(mu []float64) ([]float64, error) {
	n := len(mu)
	if n < 2 {
		return nil, fmt.Errorf("perm: need at least 2 links, got %d", n)
	}
	logOdds := make([]float64, n)
	for i, m := range mu {
		if m <= 0 || m >= 1 {
			return nil, fmt.Errorf("perm: µ_%d = %v outside (0, 1)", i, m)
		}
		logOdds[i] = math.Log(m / (1 - m))
	}
	return stationaryFromLogWeights(n, logOdds)
}

// StationaryFromWeights returns the DB-DP stationary distribution of
// Proposition 3 for priority weights w_n = f(d_n⁺)·p_n:
//
//	π*(σ) ∝ exp(Σ_n g(σ_n) · w_n).
func StationaryFromWeights(weights []float64) ([]float64, error) {
	n := len(weights)
	if n < 2 {
		return nil, fmt.Errorf("perm: need at least 2 links, got %d", n)
	}
	w := make([]float64, n)
	copy(w, weights)
	return stationaryFromLogWeights(n, w)
}

// stationaryFromLogWeights computes π(σ) ∝ exp(Σ_n g(σ_n)·w_n) stably in
// log space.
func stationaryFromLogWeights(n int, w []float64) ([]float64, error) {
	states, err := Enumerate(n)
	if err != nil {
		return nil, err
	}
	logs := make([]float64, len(states))
	for r, sigma := range states {
		s := 0.0
		for link, pr := range sigma {
			s += float64(G(n, pr)) * w[link]
		}
		logs[r] = s
	}
	logZ := logSumExp(logs)
	pi := make([]float64, len(states))
	for r, l := range logs {
		pi[r] = math.Exp(l - logZ)
	}
	return pi, nil
}

// TotalVariation returns the total-variation distance between two
// distributions over the same index set.
func TotalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("perm: distribution sizes differ: %d vs %d", len(p), len(q))
	}
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2, nil
}

// PriorityMarginals returns, for each link, the stationary probability of
// holding each priority: out[link][pr-1] = P{σ_link = pr}.
func PriorityMarginals(n int, pi []float64) ([][]float64, error) {
	states, err := Enumerate(n)
	if err != nil {
		return nil, err
	}
	if len(pi) != len(states) {
		return nil, fmt.Errorf("perm: distribution has %d entries, want %d", len(pi), len(states))
	}
	out := make([][]float64, n)
	for link := range out {
		out[link] = make([]float64, n)
	}
	for r, sigma := range states {
		for link, pr := range sigma {
			out[link][pr-1] += pi[r]
		}
	}
	return out, nil
}
