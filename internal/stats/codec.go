package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file defines the one serialized form of the package's statistics: the
// replication multiset of a curve point (PointState), which the run ledger
// stores as JSON. It outlives the process that computed it, and two runs that
// each serialize their points can be merged after the fact exactly as if
// their seeds had run in one process: the merge is a multiset union and the
// summary folds replications in seed order, so merge order never leaks into
// the result. Go's JSON encoding gives floats in shortest-round-trip form
// and fields in struct order, so decode∘encode is byte-stable.

// PointState is the serialized form of a PointAggregate: the replication
// multiset itself, in canonical (seed, value) order. Because the summary
// folds replications in that same order, any grouping of unions over
// serialized states reproduces the single-process aggregate bit for bit.
type PointState struct {
	Reps []Replication `json:"reps"`
}

// State captures the aggregate's replications in canonical order.
func (a *PointAggregate) State() PointState {
	reps := append([]Replication{}, a.reps...)
	sort.Slice(reps, func(i, j int) bool {
		if reps[i].Seed != reps[j].Seed {
			return reps[i].Seed < reps[j].Seed
		}
		return reps[i].Value < reps[j].Value
	})
	return PointState{Reps: reps}
}

// PointFromState restores a PointAggregate.
func PointFromState(st PointState) (*PointAggregate, error) {
	for i, r := range st.Reps {
		if !isFinite(r.Value) || !isFinite(r.DelayP50) || !isFinite(r.DelayP95) || !isFinite(r.DelayP99) {
			return nil, fmt.Errorf("stats: point state replication %d has non-finite values", i)
		}
		if r.DelayCount < 0 {
			return nil, fmt.Errorf("stats: point state replication %d has negative delay count", i)
		}
	}
	return &PointAggregate{reps: append([]Replication{}, st.Reps...)}, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
