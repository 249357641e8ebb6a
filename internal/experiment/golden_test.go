package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"rtmac/internal/health"
)

// updateGolden regenerates the checked-in golden outputs:
//
//	go test ./internal/experiment -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGoldenFigures pins the exact CSV output of a tiny deterministic run of
// every figure, the paper's and the beyond-paper ones. Any change to the engine's event ordering, a
// protocol's decisions, RNG stream derivation, or the figure definitions
// shows up as a golden diff — an end-to-end determinism regression net over
// the whole stack.
func TestGoldenFigures(t *testing.T) {
	opts := RunOptions{Seeds: 1, IntervalScale: 0.01, BaseSeed: 424242}
	for _, fig := range Extended() {
		fig := fig
		t.Run(fig.ID(), func(t *testing.T) {
			res, err := fig.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteCSV(&buf, res); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", fig.ID()+".csv")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("golden mismatch for %s.\nGot:\n%s\nWant:\n%s\n"+
					"(intentional behaviour change? regenerate with -update)",
					fig.ID(), buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenFiguresWithHealthPlane re-runs the golden check with the runtime
// health plane live — a fast-sampling collector plus the CPU profiler
// writing into a scratch file — and demands byte-identical CSVs. The health
// plane observes the runtime, never the simulation; this is the contract
// that makes `-health` and `-cpuprofile` safe to leave on for recorded runs.
func TestGoldenFiguresWithHealthPlane(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are updated by TestGoldenFigures")
	}
	col := health.NewCollector(health.CollectorConfig{Period: 10 * time.Millisecond})
	col.Start()
	defer col.Stop()
	prof, err := os.Create(filepath.Join(t.TempDir(), "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		t.Fatal(err)
	}
	defer pprof.StopCPUProfile()

	opts := RunOptions{Seeds: 1, IntervalScale: 0.01, BaseSeed: 424242}
	for _, fig := range All() {
		fig := fig
		t.Run(fig.ID(), func(t *testing.T) {
			res, err := fig.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteCSV(&buf, res); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", fig.ID()+".csv")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run TestGoldenFigures with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("golden mismatch for %s with health plane enabled — "+
					"the health plane must not perturb simulation results.\nGot:\n%s\nWant:\n%s",
					fig.ID(), buf.Bytes(), want)
			}
		})
	}
	if col.Status().Samples == 0 {
		t.Fatal("collector took no samples while the figures ran")
	}
}
