package debt

import "fmt"

// Ledger tracks the delivery debts d_n(k) of all links (Eq. 1 of the paper).
type Ledger struct {
	required  []float64 // q_n, packets per interval
	debts     []float64 // d_n(k)
	delivered []int64   // Σ_j S_n(j), cumulative
	intervals int64     // k
}

// NewLedger creates a ledger with d_n(0) = 0 for the given per-interval
// timely-throughput requirements q.
func NewLedger(required []float64) (*Ledger, error) {
	if len(required) == 0 {
		return nil, fmt.Errorf("debt: no links")
	}
	for n, q := range required {
		if q < 0 {
			return nil, fmt.Errorf("debt: link %d: negative requirement %v", n, q)
		}
	}
	q := make([]float64, len(required))
	copy(q, required)
	return &Ledger{
		required:  q,
		debts:     make([]float64, len(required)),
		delivered: make([]int64, len(required)),
	}, nil
}

// Links returns the number of links tracked.
func (l *Ledger) Links() int { return len(l.required) }

// Required returns q_n.
func (l *Ledger) Required(n int) float64 { return l.required[n] }

// Debt returns the current d_n(k), which may be negative when link n is
// running ahead of its requirement.
func (l *Ledger) Debt(n int) float64 { return l.debts[n] }

// Debts returns the current debt vector: debts[n] is d_n(k). The slice is
// the ledger's own storage, overwritten by the next EndInterval; callers
// read it and must not retain or mutate it. Telemetry reads it after every
// update to record pathwise debt evolution, which mean-level metrics cannot
// show.
func (l *Ledger) Debts() []float64 { return l.debts }

// PositiveDebt returns d_n⁺(k) = max{0, d_n(k)}.
func (l *Ledger) PositiveDebt(n int) float64 {
	if d := l.debts[n]; d > 0 {
		return d
	}
	return 0
}

// Delivered returns the cumulative number of on-time deliveries of link n.
func (l *Ledger) Delivered(n int) int64 { return l.delivered[n] }

// Intervals returns k, the number of completed intervals.
func (l *Ledger) Intervals() int64 { return l.intervals }

// EndInterval applies Eq. 1 for one completed interval: served[n] is S_n(k).
func (l *Ledger) EndInterval(served []int) error {
	if len(served) != len(l.required) {
		return fmt.Errorf("debt: served vector has %d entries, want %d", len(served), len(l.required))
	}
	for n, s := range served {
		if s < 0 {
			return fmt.Errorf("debt: link %d: negative service %d", n, s)
		}
		l.debts[n] += l.required[n] - float64(s)
		l.delivered[n] += int64(s)
	}
	l.intervals++
	return nil
}

// Weight returns f(d_n⁺(k)) · p_n, the priority weight used by both ELDF
// (Algorithm 1) and the DB-DP coin bias (Eq. 14).
func (l *Ledger) Weight(n int, f InfluenceFunc, p float64) float64 {
	return f.Eval(l.PositiveDebt(n)) * p
}

// Snapshot copies the current debt vector, for reporting.
func (l *Ledger) Snapshot() []float64 {
	out := make([]float64, len(l.debts))
	copy(out, l.debts)
	return out
}
