package ledger

import (
	"fmt"
	"sort"
	"sync"

	"rtmac/internal/stats"
	"rtmac/internal/telemetry"
)

// Recorder accumulates points during a run and finalizes them into one
// Record. It is safe for concurrent use — experiment reducers record points
// from many workers. A nil *Recorder is inert: every method is a no-op, so
// callers thread it through unconditionally and pay nothing when the ledger
// is disabled (the same nil-sink contract telemetry and journey hooks keep).
type Recorder struct {
	mu     sync.Mutex
	points []Point
	err    error
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// RecordAggregate snapshots one point aggregate's partial under the given
// key. The aggregate is copied via its canonical state, so the caller may
// keep mutating it.
func (r *Recorder) RecordAggregate(figure, series string, x float64, metric, better string,
	agg *stats.PointAggregate) {
	if r == nil {
		return
	}
	r.recordState(figure, series, x, metric, better, agg.State())
}

// RecordReplication records a single-replication point — the shape a
// one-seed run (rtmacsim) contributes. Merging many of these reproduces the
// multi-seed aggregate exactly.
func (r *Recorder) RecordReplication(figure, series string, x float64, metric, better string,
	rep stats.Replication) {
	if r == nil {
		return
	}
	r.recordState(figure, series, x, metric, better, stats.PointState{Reps: []stats.Replication{rep}})
}

func (r *Recorder) recordState(figure, series string, x float64, metric, better string, st stats.PointState) {
	summary, err := Summarize(st)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("ledger: point %s/%s x=%g: %w", figure, series, x, err)
		}
		return
	}
	r.points = append(r.points, Point{
		Figure: figure, Series: series, X: x, Metric: metric, Better: better,
		Agg: st, Summary: summary,
	})
}

// Points returns how many points have been recorded.
func (r *Recorder) Points() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.points)
}

// Finalize assembles the record: kind and scenario label the run, manifest
// carries its provenance, and the seed set is read off the recorded
// replications. The recorder can be finalized once; recording after
// Finalize is a programming error surfaced by Finalize's copy semantics
// (later points are simply not in the returned record).
func (r *Recorder) Finalize(kind, scenario string, manifest *telemetry.Manifest) (*Record, error) {
	if r == nil {
		return nil, fmt.Errorf("ledger: nil recorder")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.points) == 0 {
		return nil, fmt.Errorf("ledger: no points recorded")
	}
	rec := &Record{
		Schema:   RecordSchema,
		Kind:     kind,
		Scenario: scenario,
		Manifest: manifest,
		Points:   append([]Point{}, r.points...),
	}
	seeds := map[uint64]bool{}
	for _, p := range rec.Points {
		for _, rep := range p.Agg.Reps {
			seeds[rep.Seed] = true
		}
	}
	for s := range seeds {
		rec.Seeds = append(rec.Seeds, s)
	}
	sort.Slice(rec.Seeds, func(i, j int) bool { return rec.Seeds[i] < rec.Seeds[j] })
	rec.normalize()
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}
