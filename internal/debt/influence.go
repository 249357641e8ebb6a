// Package debt implements delivery debt (the virtual queue of Section III-A)
// and debt influence functions (Definition 6 of the paper).
//
// The delivery debt of link n evolves as
//
//	d_n(k+1) = d_n(k) - S_n(k) + q_n,    d_n(0) = 0,
//
// so d_n(k) = k·q_n − Σ_{j<k} S_n(j) measures how far the link's empirical
// timely-throughput lags its requirement. Influence functions shape how
// strongly a given debt pushes a link's transmission priority.
package debt

import (
	"fmt"
	"math"
)

// InfluenceFunc is a debt influence function f: R≥0 → R≥0 per Definition 6:
// nondecreasing, continuous, unbounded, and asymptotically translation-
// insensitive (f(x+c)/f(x) → 1 for every fixed c).
type InfluenceFunc struct {
	name string
	eval func(float64) float64
}

// Name identifies the function in reports.
func (f InfluenceFunc) Name() string { return f.name }

// IsZero reports whether f is the zero value, which has no function to apply.
func (f InfluenceFunc) IsZero() bool { return f.eval == nil }

// Eval applies the function. Negative inputs are clamped to zero, matching
// the d⁺ = max{0, d} convention used everywhere in the paper.
func (f InfluenceFunc) Eval(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return f.eval(x)
}

// Identity returns f(x) = x, which turns ELDF into the classical LDF policy.
func Identity() InfluenceFunc {
	return InfluenceFunc{name: "identity", eval: func(x float64) float64 { return x }}
}

// Power returns f(x) = x^m for m ≥ 0.
func Power(m float64) (InfluenceFunc, error) {
	if !(m >= 0 && m < math.Inf(1)) {
		return InfluenceFunc{}, fmt.Errorf("debt: power exponent %v must be finite and nonnegative", m)
	}
	return InfluenceFunc{
		name: fmt.Sprintf("power(%g)", m),
		eval: func(x float64) float64 { return math.Pow(x, m) },
	}, nil
}

// Log returns the paper's simulation choice f(x) = log(max{1, scale·(x+1)}).
// The paper uses scale = 100 (§VI). The max{1, ·} floor keeps the range
// nonnegative, and the +1 shift keeps zero debt finite.
func Log(scale float64) (InfluenceFunc, error) {
	if !(scale > 0 && scale < math.Inf(1)) {
		return InfluenceFunc{}, fmt.Errorf("debt: log scale %v must be finite and positive", scale)
	}
	return InfluenceFunc{
		name: fmt.Sprintf("log(%g)", scale),
		eval: func(x float64) float64 {
			return math.Log(math.Max(1, scale*(x+1)))
		},
	}, nil
}

// PaperLog returns the exact influence function of the paper's evaluation,
// f(x) = log(max{1, 100(x+1)}).
func PaperLog() InfluenceFunc {
	f, err := Log(100)
	if err != nil {
		// Unreachable: 100 > 0.
		panic(err)
	}
	return f
}

// LogLog returns f(x) = log(1 + log(1 + x)), the very slowly growing weight
// conjectured by Rajagopalan–Shah–Shin to guarantee time-scale separation.
func LogLog() InfluenceFunc {
	return InfluenceFunc{
		name: "loglog",
		eval: func(x float64) float64 {
			return math.Log(1 + math.Log(1+x))
		},
	}
}

// VerifyAxioms numerically checks the Definition 6 axioms for f on a grid:
// monotonicity and the translation-insensitivity ratio at a large abscissa.
// It is a test helper exposed for callers defining custom functions; it
// returns a descriptive error on the first violated axiom.
func VerifyAxioms(f InfluenceFunc) error {
	const (
		gridMax   = 1e6
		gridSteps = 4000
	)
	prev := f.Eval(0)
	if prev < 0 {
		return fmt.Errorf("debt: %s(0) = %v is negative", f.Name(), prev)
	}
	for i := 1; i <= gridSteps; i++ {
		x := gridMax * float64(i) / gridSteps
		y := f.Eval(x)
		if y < prev-1e-9 {
			return fmt.Errorf("debt: %s decreases near x=%v", f.Name(), x)
		}
		prev = y
	}
	// Unboundedness proxy: even the slowest admissible functions (loglog)
	// still grow measurably between 1e10 and 1e12, whereas any convergent
	// function has essentially flattened there.
	if f.Eval(1e12)-f.Eval(1e10) < 1e-6 {
		return fmt.Errorf("debt: %s appears bounded", f.Name())
	}
	// Translation insensitivity: f(x+c)/f(x) ≈ 1 for large x. Exponential
	// growth either overflows (non-finite values) or holds the ratio at a
	// constant strictly above 1; both are rejected.
	const c = 50.0
	for _, x := range []float64{1e6, 1e8, 1e10} {
		fx, fxc := f.Eval(x), f.Eval(x+c)
		if math.IsInf(fx, 0) || math.IsNaN(fx) || math.IsInf(fxc, 0) || math.IsNaN(fxc) {
			return fmt.Errorf("debt: %s is not finite near x=%g", f.Name(), x)
		}
		if ratio := fxc / fx; math.Abs(ratio-1) > 1e-3 {
			return fmt.Errorf("debt: %s violates f(x+c)/f(x) → 1 (ratio %v at x=%g)",
				f.Name(), ratio, x)
		}
	}
	return nil
}
