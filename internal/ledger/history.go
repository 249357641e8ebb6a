package ledger

import (
	"sort"
	"time"
)

// The /api/runs document: the ledger reduced to per-run rows and per-series
// cross-run trajectories, ready for the observability dashboard's history
// page. The obs package treats it as opaque JSON, keeping the HTTP plane
// decoupled from the ledger schema.

// History is the full document.
type History struct {
	// Enabled reports whether a ledger is attached at all.
	Enabled bool `json:"enabled"`
	// Dir is the ledger directory being served.
	Dir string `json:"dir,omitempty"`
	// Runs lists records oldest first (append order).
	Runs []HistoryRun `json:"runs"`
	// Trajectories give, per (figure, series, metric), the headline mean of
	// every run that recorded it, in run order — the per-commit curves the
	// history page plots.
	Trajectories []Trajectory `json:"trajectories"`
}

// HistoryRun is one ledger record's row.
type HistoryRun struct {
	ID       string    `json:"id"`
	ShortID  string    `json:"short_id"`
	Appended time.Time `json:"appended"`
	Kind     string    `json:"kind"`
	Tool     string    `json:"tool,omitempty"`
	Scenario string    `json:"scenario,omitempty"`
	Commit   string    `json:"commit,omitempty"`
	Dirty    bool      `json:"dirty,omitempty"`
	Seeds    int       `json:"seeds,omitempty"`
	Points   int       `json:"points"`
}

// Trajectory is one cross-run curve.
type Trajectory struct {
	Figure string `json:"figure"`
	Series string `json:"series"`
	Metric string `json:"metric"`
	Better string `json:"better"`
	// Values holds one sample per run that recorded the key.
	Values []TrajectoryPoint `json:"values"`
}

// TrajectoryPoint is one run's contribution to a trajectory: the mean of the
// point summaries across the run's x values, with the run identified by its
// short ID and commit.
type TrajectoryPoint struct {
	ShortID string  `json:"short_id"`
	Commit  string  `json:"commit,omitempty"`
	Mean    float64 `json:"mean"`
	N       int64   `json:"n"`
}

// HistoryDoc is the /api/runs document the observability plane serves: the
// newest 200 records, or an empty history when the ledger cannot be listed,
// so the page still renders.
func (s *Store) HistoryDoc() *History {
	h, err := BuildHistory(s, 200)
	if err != nil {
		return &History{Enabled: true, Dir: s.Dir()}
	}
	return h
}

// BuildHistory reads the newest `limit` records (0 = all) into the history
// document. Records that fail to load are skipped — a torn append must not
// take the dashboard down.
func BuildHistory(s *Store, limit int) (*History, error) {
	entries, err := s.List()
	if err != nil {
		return nil, err
	}
	if limit > 0 && len(entries) > limit {
		entries = entries[len(entries)-limit:]
	}
	h := &History{Enabled: true, Dir: s.Dir()}
	type trajKey struct{ figure, series, metric string }
	byKey := map[trajKey]*Trajectory{}
	var order []trajKey
	for _, e := range entries {
		rec, err := s.Get(e.ID)
		if err != nil {
			continue
		}
		run := historyRow(e.ID, rec)
		run.Appended = e.Appended
		short := run.ShortID
		h.Runs = append(h.Runs, run)

		// Reduce the record's points to one sample per (figure, series,
		// metric): the mean of the per-x summary means.
		type agg struct {
			sum    float64
			points int64
			n      int64
			better string
		}
		perKey := map[trajKey]*agg{}
		var keyOrder []trajKey
		for _, p := range rec.Points {
			k := trajKey{p.Figure, p.Series, p.Metric}
			a, ok := perKey[k]
			if !ok {
				a = &agg{better: p.Better}
				perKey[k] = a
				keyOrder = append(keyOrder, k)
			}
			a.sum += p.Summary.Mean
			a.points++
			a.n += p.Summary.N
		}
		for _, k := range keyOrder {
			a := perKey[k]
			t, ok := byKey[k]
			if !ok {
				t = &Trajectory{Figure: k.figure, Series: k.series, Metric: k.metric, Better: a.better}
				byKey[k] = t
				order = append(order, k)
			}
			t.Values = append(t.Values, TrajectoryPoint{
				ShortID: short, Commit: run.Commit,
				Mean: a.sum / float64(a.points), N: a.n,
			})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.figure != b.figure {
			return a.figure < b.figure
		}
		if a.series != b.series {
			return a.series < b.series
		}
		return a.metric < b.metric
	})
	for _, k := range order {
		h.Trajectories = append(h.Trajectories, *byKey[k])
	}
	return h, nil
}

// shortCommit truncates a revision hash for display.
func shortCommit(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}
