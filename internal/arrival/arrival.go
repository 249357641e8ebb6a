// Package arrival models per-interval packet arrivals (Section II-B of the
// paper): at the beginning of every interval k, link n receives A_n(k)
// packets, where {A(k)} is i.i.d. across intervals with mean vector λ and a
// finite support bound A_max. Arrivals of different links may be correlated
// within an interval, which VectorProcess captures.
package arrival

import (
	"fmt"

	"rtmac/internal/sim"
)

// Process samples the per-interval arrival count of a single link.
type Process interface {
	// Name identifies the process in reports.
	Name() string
	// Mean returns λ_n, the expected number of arrivals per interval.
	Mean() float64
	// Max returns A_max, a finite upper bound on any sample.
	Max() int
	// Sample draws the number of arrivals for one interval.
	Sample(rng *sim.RNG) int
}

// Bernoulli yields one packet with probability P, otherwise zero — the
// paper's ultra-low-latency control traffic model (§VI-B).
type Bernoulli struct {
	P float64
}

// NewBernoulli validates p and returns the process.
func NewBernoulli(p float64) (Bernoulli, error) {
	if !(p >= 0 && p <= 1) {
		return Bernoulli{}, fmt.Errorf("arrival: Bernoulli probability %v outside [0, 1]", p)
	}
	return Bernoulli{P: p}, nil
}

// Name implements Process.
func (b Bernoulli) Name() string { return fmt.Sprintf("bernoulli(%g)", b.P) }

// Mean implements Process.
func (b Bernoulli) Mean() float64 { return b.P }

// Max implements Process.
func (b Bernoulli) Max() int { return 1 }

// Sample implements Process.
func (b Bernoulli) Sample(rng *sim.RNG) int {
	if rng.Bernoulli(b.P) {
		return 1
	}
	return 0
}

// BurstyUniform yields a uniform draw from {Lo, ..., Hi} with probability
// Alpha and zero otherwise — the paper's bursty video traffic model (§VI-A),
// where Lo=1, Hi=6 gives mean 3.5·α.
type BurstyUniform struct {
	Alpha  float64
	Lo, Hi int
}

// NewBurstyUniform validates the parameters and returns the process.
func NewBurstyUniform(alpha float64, lo, hi int) (BurstyUniform, error) {
	switch {
	case !(alpha >= 0 && alpha <= 1):
		return BurstyUniform{}, fmt.Errorf("arrival: burst probability %v outside [0, 1]", alpha)
	case lo < 0:
		return BurstyUniform{}, fmt.Errorf("arrival: negative burst size %d", lo)
	case hi < lo:
		return BurstyUniform{}, fmt.Errorf("arrival: burst range [%d, %d] is empty", lo, hi)
	}
	return BurstyUniform{Alpha: alpha, Lo: lo, Hi: hi}, nil
}

// PaperVideo returns the exact video arrival process used in the paper's
// Section VI-A: uniform on {1,...,6} with probability alpha, zero otherwise.
func PaperVideo(alpha float64) (BurstyUniform, error) {
	return NewBurstyUniform(alpha, 1, 6)
}

// Name implements Process.
func (u BurstyUniform) Name() string {
	return fmt.Sprintf("bursty(%g, U{%d..%d})", u.Alpha, u.Lo, u.Hi)
}

// Mean implements Process.
func (u BurstyUniform) Mean() float64 {
	return u.Alpha * float64(u.Lo+u.Hi) / 2
}

// Max implements Process.
func (u BurstyUniform) Max() int { return u.Hi }

// Sample implements Process.
func (u BurstyUniform) Sample(rng *sim.RNG) int {
	if !rng.Bernoulli(u.Alpha) {
		return 0
	}
	return u.Lo + rng.IntN(u.Hi-u.Lo+1)
}

// Deterministic yields exactly N packets every interval — the classical
// one-packet-per-interval model of Hou et al. when N = 1.
type Deterministic struct {
	N int
}

// Name implements Process.
func (d Deterministic) Name() string { return fmt.Sprintf("deterministic(%d)", d.N) }

// Mean implements Process.
func (d Deterministic) Mean() float64 { return float64(d.N) }

// Max implements Process.
func (d Deterministic) Max() int { return d.N }

// Sample implements Process.
func (d Deterministic) Sample(*sim.RNG) int { return d.N }

// Binomial yields Binomial(N, P) arrivals per interval, a bounded stand-in
// for Poisson-like aggregate traffic.
type Binomial struct {
	N int
	P float64
}

// NewBinomial validates the parameters and returns the process.
func NewBinomial(n int, p float64) (Binomial, error) {
	if n < 0 {
		return Binomial{}, fmt.Errorf("arrival: negative trial count %d", n)
	}
	if !(p >= 0 && p <= 1) {
		return Binomial{}, fmt.Errorf("arrival: Binomial probability %v outside [0, 1]", p)
	}
	return Binomial{N: n, P: p}, nil
}

// Name implements Process.
func (b Binomial) Name() string { return fmt.Sprintf("binomial(%d, %g)", b.N, b.P) }

// Mean implements Process.
func (b Binomial) Mean() float64 { return float64(b.N) * b.P }

// Max implements Process.
func (b Binomial) Max() int { return b.N }

// Sample implements Process.
func (b Binomial) Sample(rng *sim.RNG) int { return rng.Binomial(b.N, b.P) }

// Interface compliance.
var (
	_ Process = Bernoulli{}
	_ Process = BurstyUniform{}
	_ Process = Deterministic{}
	_ Process = Binomial{}
)
