package arrival

import (
	"fmt"

	"rtmac/internal/sim"
)

// MarkovModulated is a two-regime Markov-modulated vector arrival process:
// the network hops between a Low and a High regime from interval to
// interval, and all links draw from the active regime's process.
//
// NOTE: this process is deliberately NOT i.i.d. across intervals, so it
// falls outside the paper's Section II-B model. It exists for robustness
// experiments — how the debt policies behave when traffic has temporal
// correlation (e.g. the group-of-pictures bursts of real video) that their
// optimality proofs do not cover.
type MarkovModulated struct {
	low, high VectorProcess
	// lowToHigh and highToLow are per-interval regime switch probabilities.
	lowToHigh, highToLow float64
	inHigh               bool
}

// NewMarkovModulated validates and builds the process; the initial regime
// is Low. Both regimes must cover the same links.
func NewMarkovModulated(low, high VectorProcess, lowToHigh, highToLow float64) (*MarkovModulated, error) {
	switch {
	case low == nil || high == nil:
		return nil, fmt.Errorf("arrival: nil regime process")
	case low.Links() != high.Links():
		return nil, fmt.Errorf("arrival: regime link counts differ: %d vs %d", low.Links(), high.Links())
	case !(lowToHigh > 0 && lowToHigh <= 1 && highToLow > 0 && highToLow <= 1):
		return nil, fmt.Errorf("arrival: switch probabilities (%v, %v) outside (0, 1]", lowToHigh, highToLow)
	}
	return &MarkovModulated{low: low, high: high, lowToHigh: lowToHigh, highToLow: highToLow}, nil
}

// Links implements VectorProcess.
func (m *MarkovModulated) Links() int { return m.low.Links() }

// Means implements VectorProcess: the stationary-weighted regime means.
func (m *MarkovModulated) Means() []float64 {
	pHigh := m.lowToHigh / (m.lowToHigh + m.highToLow)
	lo, hi := m.low.Means(), m.high.Means()
	means := make([]float64, len(lo))
	for n := range means {
		means[n] = (1-pHigh)*lo[n] + pHigh*hi[n]
	}
	return means
}

// MaxPerLink implements VectorProcess.
func (m *MarkovModulated) MaxPerLink() []int {
	lo, hi := m.low.MaxPerLink(), m.high.MaxPerLink()
	maxes := make([]int, len(lo))
	for n := range maxes {
		maxes[n] = max(lo[n], hi[n])
	}
	return maxes
}

// Sample implements VectorProcess: advance the regime chain one interval,
// then draw from the active regime.
func (m *MarkovModulated) Sample(rng *sim.RNG, dst []int) {
	if m.inHigh {
		if rng.Bernoulli(m.highToLow) {
			m.inHigh = false
		}
	} else if rng.Bernoulli(m.lowToHigh) {
		m.inHigh = true
	}
	if m.inHigh {
		m.high.Sample(rng, dst)
		return
	}
	m.low.Sample(rng, dst)
}

// InHigh reports the current regime, for tests and diagnostics.
func (m *MarkovModulated) InHigh() bool { return m.inHigh }

var _ VectorProcess = (*MarkovModulated)(nil)
