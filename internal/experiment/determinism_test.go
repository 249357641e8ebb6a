package experiment

import (
	"bytes"
	"testing"

	"rtmac/internal/rundiff"
)

// TestRunWorkerCountInvariance pins cross-worker determinism: every figure
// must aggregate to byte-identical CSV whether its (point, protocol, seed)
// jobs run sequentially or race across a worker pool. Every job derives its
// RNG stream purely from its own seed, reducers are keyed or fold in
// replication order, and jobs whose arrivals keep state get their own
// scenario, so the worker count can only change wall-clock time — never
// results. A diff here means a job leaked state into a shared aggregate or
// picked up scheduling-dependent randomness. Two replications exercise the
// order-sensitive folds (fig6's per-link sums) and, under -race, the
// per-job arrival processes of extra-correlated.
func TestRunWorkerCountInvariance(t *testing.T) {
	for _, fig := range Extended() {
		fig := fig
		t.Run(fig.ID(), func(t *testing.T) {
			render := func(workers int) []byte {
				opts := RunOptions{
					Seeds:         2,
					IntervalScale: 0.02,
					BaseSeed:      7,
					Workers:       workers,
				}
				res, err := fig.Run(opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var buf bytes.Buffer
				if err := WriteCSV(&buf, res); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return buf.Bytes()
			}
			serial := render(1)
			parallel := render(8)
			// rundiff is the enforcement tool behind this contract: on a
			// breach it names the first divergent row and column instead of
			// dumping both CSVs.
			d, err := rundiff.DiffCSV(bytes.NewReader(serial), bytes.NewReader(parallel))
			if err != nil {
				t.Fatal(err)
			}
			if !d.Equal {
				t.Fatalf("Workers=1 and Workers=8 disagree at row %d col %d: %q vs %q\n  w1: %s\n  w8: %s",
					d.Row, d.Col, d.FieldA, d.FieldB, d.RawA, d.RawB)
			}
		})
	}
}
