package scenario

import (
	"path/filepath"
	"testing"

	"rtmac"
)

// TestShippedScenariosRunCleanUnderStrictMonitor decodes every scenario file
// shipped in scenarios/ and runs it for 1000 intervals with the strict
// invariant monitor attached: a shipped scenario that fails to decode, fails
// validation, or trips a structural invariant is a regression regardless of
// whether any unit test references it directly.
func TestShippedScenariosRunCleanUnderStrictMonitor(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped scenarios found in ../scenarios")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			cfg, _, intervals, err := LoadFile(path)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if intervals <= 0 {
				t.Errorf("scenario declares %d intervals, want positive", intervals)
			}
			s, err := rtmac.NewSimulation(cfg)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			mon, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
			if err != nil {
				t.Fatalf("monitor: %v", err)
			}
			if err := s.Run(1000); err != nil {
				t.Fatalf("run violated an invariant: %v", err)
			}
			if vs := mon.Violations(); len(vs) > 0 {
				t.Fatalf("monitor recorded %d violations, first: %v", len(vs), vs[0])
			}
		})
	}
}
