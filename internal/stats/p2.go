package stats

import (
	"fmt"
	"math"
	"sort"
)

// P2 estimates one quantile of a stream in O(1) memory with the P² algorithm
// (Jain & Chlamtac, CACM 1985): five markers track the running minimum, the
// target quantile, the two surrounding mid-quantiles, and the maximum, and
// are nudged toward their ideal positions with parabolic interpolation after
// every observation. Until five observations have arrived the exact sample
// quantile is served from a tiny buffer.
//
// The estimator is deterministic: the same observation sequence always yields
// the same estimate, so sketch-derived figures stay golden-testable.
type P2 struct {
	p     float64    // target quantile in (0, 1)
	q     [5]float64 // marker heights
	n     [5]float64 // marker positions (1-based observation ranks)
	np    [5]float64 // desired marker positions
	dnp   [5]float64 // per-observation increments of np
	count int64
	// buf holds the first observations, sorted, until the fifth initializes
	// the markers.
	buf [5]float64
}

// NewP2 returns a P² estimator for the quantile p ∈ (0, 1).
func NewP2(p float64) (*P2, error) {
	var s P2
	if err := s.init(p); err != nil {
		return nil, err
	}
	return &s, nil
}

// init readies s to estimate the quantile p ∈ (0, 1); estimators held by
// value (QuantileSketch's) start here.
func (s *P2) init(p float64) error {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return fmt.Errorf("stats: quantile %v outside (0, 1)", p)
	}
	*s = P2{p: p, dnp: [5]float64{0, p / 2, p, (1 + p) / 2, 1}}
	return nil
}

// Add folds one observation into the estimator.
func (s *P2) Add(x float64) {
	if n := int(s.count); n < len(s.buf) {
		i := sort.SearchFloat64s(s.buf[:n], x)
		copy(s.buf[i+1:n+1], s.buf[i:n])
		s.buf[i] = x
		s.count++
		if s.count == int64(len(s.buf)) {
			s.q = s.buf
			s.n = [5]float64{1, 2, 3, 4, 5}
			s.np = [5]float64{1, 1 + 2*s.p, 1 + 4*s.p, 3 + 2*s.p, 5}
		}
		return
	}
	s.count++

	// Locate the cell k the observation falls into, widening the extreme
	// markers when it falls outside them.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		if x > s.q[4] {
			s.q[4] = x
		}
		k = 3
	default:
		k = 3
		for i := 1; i <= 3; i++ {
			if x < s.q[i] {
				k = i - 1
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.n[i]++
	}
	for i := 0; i < 5; i++ {
		s.np[i] += s.dnp[i]
	}
	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.np[i] - s.n[i]
		if (d >= 1 && s.n[i+1]-s.n[i] > 1) || (d <= -1 && s.n[i-1]-s.n[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			if qn := s.parabolic(i, sign); s.q[i-1] < qn && qn < s.q[i+1] {
				s.q[i] = qn
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.n[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height update for marker i moved by
// d ∈ {−1, +1}.
func (s *P2) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.n[i+1]-s.n[i-1])*
		((s.n[i]-s.n[i-1]+d)*(s.q[i+1]-s.q[i])/(s.n[i+1]-s.n[i])+
			(s.n[i+1]-s.n[i]-d)*(s.q[i]-s.q[i-1])/(s.n[i]-s.n[i-1]))
}

// linear is the fallback height update when the parabola overshoots a
// neighboring marker.
func (s *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.n[j]-s.n[i])
}

// Count returns the number of observations.
func (s *P2) Count() int64 { return s.count }

// Quantile returns the current estimate of the target quantile (0 when the
// stream is empty).
func (s *P2) Quantile() float64 {
	if n := int(s.count); n < len(s.buf) {
		if n == 0 {
			return 0
		}
		idx := int(math.Ceil(s.p*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		return s.buf[idx]
	}
	return s.q[2]
}

// QuantileSketch tracks several quantiles of one stream in fixed memory,
// alongside count, min, max and mean — the summary a delivery-delay
// distribution is reduced to per replication.
type QuantileSketch struct {
	qs  []float64
	est []P2
	acc Accumulator
	min float64
	max float64
}

// NewQuantileSketch builds a sketch for the given strictly increasing target
// quantiles (e.g. 0.5, 0.95, 0.99).
func NewQuantileSketch(quantiles ...float64) (*QuantileSketch, error) {
	if len(quantiles) == 0 {
		return nil, fmt.Errorf("stats: sketch needs at least one quantile")
	}
	s := &QuantileSketch{
		qs:  append([]float64(nil), quantiles...),
		est: make([]P2, len(quantiles)),
		min: math.Inf(1),
		max: math.Inf(-1),
	}
	for i, q := range quantiles {
		if i > 0 && q <= quantiles[i-1] {
			return nil, fmt.Errorf("stats: sketch quantiles not strictly increasing at %d", i)
		}
		if err := s.est[i].init(q); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add folds one observation into every tracked quantile.
func (s *QuantileSketch) Add(x float64) {
	s.acc.Add(x)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	for i := range s.est {
		s.est[i].Add(x)
	}
}

// Count returns the number of observations.
func (s *QuantileSketch) Count() int64 { return s.acc.Count() }

// Mean returns the sample mean.
func (s *QuantileSketch) Mean() float64 { return s.acc.Mean() }

// Min returns the smallest observation (0 when empty).
func (s *QuantileSketch) Min() float64 {
	if s.acc.Count() == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *QuantileSketch) Max() float64 {
	if s.acc.Count() == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the estimate for one of the tracked quantiles; asking for
// an untracked quantile is a programming error and panics.
func (s *QuantileSketch) Quantile(q float64) float64 {
	for i, have := range s.qs {
		if have == q {
			return s.est[i].Quantile()
		}
	}
	panic(fmt.Sprintf("stats: quantile %v not tracked by sketch %v", q, s.qs))
}
