package ledger

import (
	"fmt"
	"slices"
	"sort"

	"rtmac/internal/stats"
)

// Merge combines records into one, exactly as if their seeds had run in a
// single process: points with equal (figure, series, x, metric) keys pool
// their replication multisets, and every summary is recomputed from the
// pooled partial. Merging is commutative, associative and idempotent —
// exact-duplicate replications (same seed and values) collapse, so merging
// overlapping records or a record with itself changes nothing. ids, when
// provided, records the sources' content addresses for provenance.
//
// Points present in only some inputs are kept: a merge is a union, not an
// intersection. The per-replication delay quantiles inside the partials
// survive and keep feeding merged summaries.
func Merge(recs []*Record, ids []string) (*Record, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("ledger: nothing to merge")
	}
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("ledger: merge input %d: %w", i, err)
		}
	}
	out := &Record{Schema: RecordSchema, Kind: "merged"}
	byKey := make(map[string]*Point)
	var order []string
	for _, r := range recs {
		out.Seeds = append(out.Seeds, r.Seeds...)
		if out.Scenario == "" {
			out.Scenario = r.Scenario
		} else if r.Scenario != "" && r.Scenario != out.Scenario {
			out.Scenario = "merged scenarios"
		}
		for _, p := range r.Points {
			key := p.Key()
			have, ok := byKey[key]
			if !ok {
				cp := p
				cp.Agg = stats.PointState{Reps: append([]stats.Replication{}, p.Agg.Reps...)}
				byKey[key] = &cp
				order = append(order, key)
				continue
			}
			if have.Better != p.Better {
				return nil, fmt.Errorf("ledger: point %s merges %q with %q direction", key, have.Better, p.Better)
			}
			have.Agg.Reps = append(have.Agg.Reps, p.Agg.Reps...)
		}
	}
	sort.Strings(order)
	for _, key := range order {
		p := byKey[key]
		p.Agg.Reps = dedupeReps(p.Agg.Reps)
		agg, err := stats.PointFromState(p.Agg)
		if err != nil {
			return nil, fmt.Errorf("ledger: point %s: %w", key, err)
		}
		p.Agg = agg.State() // canonical order
		if p.Summary, err = Summarize(p.Agg); err != nil {
			return nil, fmt.Errorf("ledger: point %s: %w", key, err)
		}
		out.Points = append(out.Points, *p)
	}
	out.Merged = append([]string{}, ids...)
	sort.Strings(out.Merged)
	out.normalize()
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// dedupeReps collapses exact-duplicate replications (every field equal) so
// merging is idempotent. Distinct observations that share a seed are kept:
// only true duplicates — the same run appended twice — collapse.
func dedupeReps(reps []stats.Replication) []stats.Replication {
	sort.Slice(reps, func(i, j int) bool {
		a, b := reps[i], reps[j]
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		if a.DelayP50 != b.DelayP50 {
			return a.DelayP50 < b.DelayP50
		}
		if a.DelayP95 != b.DelayP95 {
			return a.DelayP95 < b.DelayP95
		}
		if a.DelayP99 != b.DelayP99 {
			return a.DelayP99 < b.DelayP99
		}
		return a.DelayCount < b.DelayCount
	})
	out := reps[:0]
	for i, r := range reps {
		if i > 0 && r == reps[i-1] {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Equivalent reports whether two records carry statistically identical
// points: the same point keys, directions, and equal replication multisets
// (which implies identical summaries). It is the exactness check behind
// `ledgerctl equal` — a merge of per-seed records is Equivalent to the record
// one combined run of the same seeds produces. Manifests, kinds and merge
// provenance are deliberately ignored; only the statistics count.
func Equivalent(a, b *Record) error {
	byKey := make(map[string]Point, len(a.Points))
	for _, p := range a.Points {
		byKey[p.Key()] = p
	}
	if len(a.Points) != len(b.Points) {
		return fmt.Errorf("point count differs: %d vs %d", len(a.Points), len(b.Points))
	}
	for _, q := range b.Points {
		p, ok := byKey[q.Key()]
		if !ok {
			return fmt.Errorf("point %s only in second record", q.Key())
		}
		if p.Better != q.Better {
			return fmt.Errorf("point %s: direction %q vs %q", q.Key(), p.Better, q.Better)
		}
		if !slices.Equal(p.Agg.Reps, q.Agg.Reps) {
			return fmt.Errorf("point %s: replication partials differ (%+v vs %+v)",
				q.Key(), p.Summary, q.Summary)
		}
	}
	return nil
}
