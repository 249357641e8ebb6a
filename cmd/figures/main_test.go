package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmac/internal/experiment"
	"rtmac/internal/ledger"
)

func runFigures(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestAllFiguresUnderStrictMonitor regenerates every figure, the
// beyond-paper ones included, at 2% length under the default strict
// monitor: a single invariant violation fails its figure and the run.
func TestAllFiguresUnderStrictMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all figures")
	}
	code, out, errs := runFigures(t, "-scale", "0.02", "-seeds", "1", "-quiet", "-extended")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errs)
	}
	for _, fig := range experiment.Extended() {
		if !strings.Contains(out, "("+fig.ID()+" completed in ") {
			t.Errorf("%s did not complete", fig.ID())
		}
	}
}

// TestSeedListRecordsMerge records fig3 once per seed and once over both
// seeds: merging the per-seed records must give exactly the statistics of
// the combined run.
func TestSeedListRecordsMerge(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	for _, seeds := range []string{"101", "202", "101,202"} {
		if code, _, errs := runFigures(t, "-fig", "fig3", "-scale", "0.02", "-quiet", "-seedlist", seeds, "-ledger", dir); code != 0 {
			t.Fatalf("-seedlist %s: exit %d:\n%s", seeds, code, errs)
		}
	}
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*ledger.Record
	var ids []string
	for _, ref := range []string{"latest~2", "latest~1", "latest"} {
		id, err := store.Resolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		recs, ids = append(recs, rec), append(ids, id)
	}
	if got := recs[2].Manifest.Config["seedlist"]; got != "101,202" {
		t.Errorf("combined record's manifest seedlist = %q", got)
	}
	merged, err := ledger.Merge(recs[:2], ids[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Equivalent(merged, recs[2]); err != nil {
		t.Fatalf("per-seed records do not merge into the combined run: %v", err)
	}
}

// TestCPUProfile profiles a sweep beside the health collector and requires
// a non-empty gzip pprof file.
func TestCPUProfile(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	code, _, errs := runFigures(t, "-fig", "fig9", "-scale", "0.02", "-seeds", "1", "-quiet", "-health", "-cpuprofile", cpu)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errs)
	}
	if !strings.Contains(errs, "health: ") {
		t.Errorf("no health summary line:\n%s", errs)
	}
	data, err := os.ReadFile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("%s is not a gzip pprof file (%d bytes)", cpu, len(data))
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-fig", "fig99"}, {"-seedlist", "1,x"}, {"-nope"}} {
		if code, _, _ := runFigures(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestSLOBudgetOutOfRange checks that -slo-budget outside [0, 1], NaN
// included, is a usage error (exit 2) caught before any figure runs.
func TestSLOBudgetOutOfRange(t *testing.T) {
	for _, b := range []string{"NaN", "-0.1", "1.5"} {
		code, out, errs := runFigures(t, "-fig", "fig9", "-scale", "0.02", "-seeds", "1", "-quiet", "-slo-budget", b)
		if code != 2 || !strings.Contains(errs, "miss budget") || out != "" {
			t.Errorf("-slo-budget %s exited %d (%q, stdout %q), want 2 with a miss-budget error and no figure", b, code, errs, out)
		}
	}
}
