package medium

import (
	"fmt"

	"rtmac/internal/sim"
)

// Model supplies the instantaneous per-link delivery probability. The
// paper's base model is static (Section II-A); a time-varying model lets the
// repository probe robustness beyond the paper's assumptions, in the spirit
// of the fading-channel extensions it cites (Hou, ToN 2014).
type Model interface {
	// Instantaneous returns the delivery probability of link at the given
	// time. Values must stay within (0, 1].
	Instantaneous(link int, at sim.Time) float64
	// Mean returns the long-run average probability of link — what a
	// transmitter would learn from past outcomes and feed into debt
	// weights.
	Mean(link int) float64
}

// staticModel is the paper's model: one constant per link.
type staticModel struct {
	probs []float64
}

func (m staticModel) Instantaneous(link int, _ sim.Time) float64 { return m.probs[link] }
func (m staticModel) Mean(link int) float64                      { return m.probs[link] }

// GilbertElliott is the classical two-state fading model: each link hops
// independently between a Good and a Bad state; transitions are evaluated
// once per Period. Delivery probability is PGood or PBad according to the
// current state.
type GilbertElliott struct {
	// PGood and PBad are the delivery probabilities in each state.
	PGood, PBad float64
	// GoodToBad and BadToGood are per-period transition probabilities.
	GoodToBad, BadToGood float64
	// Period is how often the state may flip.
	Period sim.Time

	rng *sim.RNG
	// Per-link lazy state.
	inBad   []bool
	updated []sim.Time
}

// NewGilbertElliott validates the parameters and prepares per-link chains
// for n links, with randomness drawn from the engine's "channel" stream.
// Each link starts in its stationary state distribution.
func NewGilbertElliott(eng *sim.Engine, n int, pGood, pBad, goodToBad, badToGood float64, period sim.Time) (*GilbertElliott, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("medium: need at least one link, got %d", n)
	case !(pGood > 0 && pGood <= 1 && pBad > 0 && pBad <= 1):
		return nil, fmt.Errorf("medium: state probabilities (%v, %v) outside (0, 1]", pGood, pBad)
	case pBad > pGood:
		return nil, fmt.Errorf("medium: bad-state probability %v above good-state %v", pBad, pGood)
	case !(goodToBad >= 0 && goodToBad <= 1 && badToGood > 0 && badToGood <= 1):
		return nil, fmt.Errorf("medium: transition probabilities (%v, %v) invalid", goodToBad, badToGood)
	case period <= 0:
		return nil, fmt.Errorf("medium: non-positive fading period %v", period)
	}
	ge := &GilbertElliott{
		PGood:     pGood,
		PBad:      pBad,
		GoodToBad: goodToBad,
		BadToGood: badToGood,
		Period:    period,
		rng:       eng.RNG("channel"),
		inBad:     make([]bool, n),
		updated:   make([]sim.Time, n),
	}
	// Stationary start: P(bad) = g2b / (g2b + b2g).
	pBadState := goodToBad / (goodToBad + badToGood)
	for link := range ge.inBad {
		ge.inBad[link] = ge.rng.Bernoulli(pBadState)
	}
	return ge, nil
}

// Instantaneous implements Model, advancing the link's chain lazily to `at`.
func (g *GilbertElliott) Instantaneous(link int, at sim.Time) float64 {
	steps := int((at - g.updated[link]) / g.Period)
	if steps > 0 {
		g.updated[link] += sim.Time(steps) * g.Period
		for i := 0; i < steps; i++ {
			if g.inBad[link] {
				if g.rng.Bernoulli(g.BadToGood) {
					g.inBad[link] = false
				}
			} else if g.rng.Bernoulli(g.GoodToBad) {
				g.inBad[link] = true
			}
		}
	}
	if g.inBad[link] {
		return g.PBad
	}
	return g.PGood
}

// Mean implements Model: the stationary average probability.
func (g *GilbertElliott) Mean(int) float64 {
	pBadState := g.GoodToBad / (g.GoodToBad + g.BadToGood)
	return (1-pBadState)*g.PGood + pBadState*g.PBad
}

// Interface compliance.
var (
	_ Model = staticModel{}
	_ Model = (*GilbertElliott)(nil)
)
