package arrival

import (
	"fmt"

	"rtmac/internal/sim"
)

// VectorProcess samples the joint arrival vector A(k) of all links for one
// interval. The paper allows arrivals of different links within an interval
// to be correlated (Section II-B); this interface is the hook for that.
type VectorProcess interface {
	// Links returns N, the number of links.
	Links() int
	// Means returns the mean vector λ.
	Means() []float64
	// MaxPerLink returns A_max bounds per link.
	MaxPerLink() []int
	// Sample draws one joint arrival vector, writing into dst (len N).
	Sample(rng *sim.RNG, dst []int)
}

// Independent combines per-link processes into a vector process with
// independent coordinates.
type Independent struct {
	procs []Process
}

// NewIndependent wraps per-link processes. It returns an error when the
// list is empty or contains a nil entry. The vector keeps the slice it is
// given, so a caller passing procs... must not change it afterwards.
func NewIndependent(procs ...Process) (*Independent, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("arrival: no per-link processes")
	}
	for n, p := range procs {
		if p == nil {
			return nil, fmt.Errorf("arrival: nil process for link %d", n)
		}
	}
	return &Independent{procs: procs}, nil
}

// Uniform builds an Independent vector with the same process on every link.
func Uniform(n int, p Process) (*Independent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("arrival: non-positive link count %d", n)
	}
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = p
	}
	return NewIndependent(procs...)
}

// Links implements VectorProcess.
func (v *Independent) Links() int { return len(v.procs) }

// Means implements VectorProcess.
func (v *Independent) Means() []float64 {
	means := make([]float64, len(v.procs))
	for n, p := range v.procs {
		means[n] = p.Mean()
	}
	return means
}

// MaxPerLink implements VectorProcess.
func (v *Independent) MaxPerLink() []int {
	maxes := make([]int, len(v.procs))
	for n, p := range v.procs {
		maxes[n] = p.Max()
	}
	return maxes
}

// Sample implements VectorProcess.
func (v *Independent) Sample(rng *sim.RNG, dst []int) {
	for n, p := range v.procs {
		dst[n] = p.Sample(rng)
	}
}

// Interface compliance.
var _ VectorProcess = (*Independent)(nil)
