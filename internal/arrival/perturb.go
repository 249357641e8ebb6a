package arrival

import (
	"fmt"

	"rtmac/internal/sim"
)

// Perturb wraps a VectorProcess and injects extra packets into exactly one
// sampled interval: the K-th call to Sample (0-based) gets Extra additional
// arrivals on one link. The wrapper draws nothing from the RNG itself, so the
// wrapped process consumes exactly the same random stream as it would bare —
// two runs differing only by a Perturb are byte-identical up to interval K
// and diverge there, which is what the rundiff divergence tests rely on.
// Calls are counted per RNG stream, so networks that share one Perturb (each
// draws arrivals from its own stream) all see the injection.
type Perturb struct {
	inner VectorProcess
	k     int64
	link  int
	extra int
	rng   *sim.RNG
	calls int64
}

// NewPerturb validates and builds the wrapper. k is the 0-based Sample call
// (= interval index) to perturb, link the target link, extra the number of
// packets to add (≥ 1).
func NewPerturb(inner VectorProcess, k int64, link, extra int) (*Perturb, error) {
	switch {
	case inner == nil:
		return nil, fmt.Errorf("arrival: perturb: nil inner process")
	case k < 0:
		return nil, fmt.Errorf("arrival: perturb: negative interval %d", k)
	case link < 0 || link >= inner.Links():
		return nil, fmt.Errorf("arrival: perturb: link %d outside [0, %d)", link, inner.Links())
	case extra < 1:
		return nil, fmt.Errorf("arrival: perturb: extra %d must be at least 1", extra)
	}
	return &Perturb{inner: inner, k: k, link: link, extra: extra}, nil
}

// Links implements VectorProcess.
func (p *Perturb) Links() int { return p.inner.Links() }

// Means implements VectorProcess. The one-off injection does not move the
// long-run mean, so the inner means are reported unchanged; feasibility
// checks judge the nominal workload, not the fault.
func (p *Perturb) Means() []float64 { return p.inner.Means() }

// MaxPerLink implements VectorProcess, raising the perturbed link's bound so
// queue-capacity sizing admits the injected burst.
func (p *Perturb) MaxPerLink() []int {
	maxes := p.inner.MaxPerLink()
	out := make([]int, len(maxes))
	copy(out, maxes)
	out[p.link] += p.extra
	return out
}

// Sample implements VectorProcess.
func (p *Perturb) Sample(rng *sim.RNG, dst []int) {
	if rng != p.rng {
		p.rng, p.calls = rng, 0
	}
	p.inner.Sample(rng, dst)
	if p.calls == p.k {
		dst[p.link] += p.extra
	}
	p.calls++
}

var _ VectorProcess = (*Perturb)(nil)
