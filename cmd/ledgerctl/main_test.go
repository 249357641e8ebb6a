package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmac"
	"rtmac/internal/experiment"
	"rtmac/internal/ledger"
	"rtmac/internal/stats"
	"rtmac/internal/telemetry"
)

func runCtl(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// appendFig3 records fig3 at 2% length over the given replication seeds into
// the ledger, the way `figures -fig fig3 -seedlist ... -ledger` does.
func appendFig3(t *testing.T, store *ledger.Store, seeds ...uint64) {
	t.Helper()
	fig, err := experiment.ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	rec := ledger.NewRecorder()
	opts := experiment.RunOptions{SeedList: seeds, IntervalScale: 0.02, Monitor: true, Recorder: rec}
	if _, err := fig.Run(opts); err != nil {
		t.Fatal(err)
	}
	r, err := rec.Finalize("figures", "fig3", telemetry.NewManifest("figures", 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(r); err != nil {
		t.Fatal(err)
	}
}

// appendRun records one 1000-interval DB-DP run's total deficiency at
// delivery probability p.
func appendRun(t *testing.T, store *ledger.Store, p float64) {
	t.Helper()
	links := make([]rtmac.Link, 10)
	for i := range links {
		links[i] = rtmac.Link{SuccessProb: p, Arrivals: rtmac.MustBernoulliArrivals(0.78), DeliveryRatio: 0.99}
	}
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed: 7, Profile: rtmac.ControlProfile(), Links: links, Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	rep := sim.Report()
	rec := ledger.NewRecorder()
	rec.RecordReplication("run", rep.Protocol, 0, "deficiency", ledger.BetterLower,
		stats.Replication{Seed: 7, Value: rep.TotalDeficiency})
	r, err := rec.Finalize("run", "dbdp 10 links", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(r); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerFlow is the ledger's end-to-end contract: per-seed records
// merge into exactly the statistics of the combined run, the sentinel
// passes identical statistics and trips on a degraded run, and a confidence
// level the sentinel cannot test at is a usage error.
func TestLedgerFlow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendFig3(t, store, 101)
	appendFig3(t, store, 202)
	appendFig3(t, store, 101, 202)

	code, out, errs := runCtl(t, "-dir", dir, "list")
	if code != 0 || strings.Count(out, "\n") != 1+3 {
		t.Fatalf("list: exit %d, want a header and 3 rows:\n%s%s", code, out, errs)
	}
	if code, out, errs := runCtl(t, "-dir", dir, "merge", "latest~2", "latest~1"); code != 0 {
		t.Fatalf("merge: exit %d:\n%s%s", code, out, errs)
	}
	merged, err := store.Get("latest")
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Seeds) != 2 || len(merged.Merged) != 2 {
		t.Fatalf("merged record carries seeds %v from %d records", merged.Seeds, len(merged.Merged))
	}
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"equal", "latest", "latest~1"}, 0},   // merged == combined, exactly
		{[]string{"diff", "latest~1", "latest"}, 0},    // no regression between them
		{[]string{"equal", "latest~3", "latest~2"}, 1}, // seed 101 vs seed 202
		{[]string{"show", "latest"}, 0},
		{[]string{"-confidence", "0.99", "diff", "latest~1", "latest"}, 0},
		{[]string{"-confidence", "0.5", "diff", "latest~1", "latest"}, 2}, // not tabulated
		{[]string{"-confidence", "1.5", "diff", "latest~1", "latest"}, 2}, // not a level
	} {
		if code, out, errs := runCtl(t, append([]string{"-dir", dir}, tc.args...)...); code != tc.code {
			t.Errorf("%v: exit %d, want %d:\n%s%s", tc.args, code, tc.code, out, errs)
		}
	}

	appendRun(t, store, 0.7)
	appendRun(t, store, 0.45)
	if code, out, errs := runCtl(t, "-dir", dir, "diff", "latest~1", "latest"); code != 1 || !strings.Contains(errs, "1 significant regressions") {
		t.Errorf("degraded run (-p 0.45 against 0.7): diff exit %d, want 1 with one regression:\n%s%s", code, out, errs)
	}
}

// TestPreChangeLedger runs every subcommand on a ledger written before
// records lost their P² sketch: two `rtmacsim -seed {1,2} -intervals 2000
// -ledger` records that still carry a "sketch" key, then one `figures -fig
// fig3 -scale 0.02 -ledger` record. The expected outputs (stdout, then
// stderr) and the merged record's ID are what ledgerctl printed for this
// ledger when it was written; they must never be regenerated.
func TestPreChangeLedger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	copyDir(t, filepath.Join("..", "..", "internal", "ledger", "testdata", "prechange"), dir)
	for _, tc := range []struct {
		golden string
		args   []string
		code   int
	}{
		{"list", []string{"list"}, 0},
		{"show_run1", []string{"show", "latest~2"}, 0},
		{"show_run2", []string{"show", "latest~1"}, 0},
		{"show_fig3", []string{"show", "latest"}, 0},
		{"diff_runs", []string{"diff", "latest~2", "latest~1"}, 1},
		{"diff_fig3", []string{"diff", "latest", "latest"}, 0},
		{"equal_runs", []string{"equal", "latest~2", "latest~1"}, 1},
		{"equal_fig3", []string{"equal", "latest", "latest"}, 0},
		// merge appends, so it runs last and the merged record is "latest".
		{"merge", []string{"merge", "latest~2", "latest~1"}, 0},
		{"show_merged", []string{"show", "latest"}, 0},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "prechange", tc.golden+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		code, out, errs := runCtl(t, append([]string{"-dir", dir}, tc.args...)...)
		if code != tc.code || out+errs != string(want) {
			t.Errorf("%v: exit %d (want %d), output:\n%s%s\nwant:\n%s", tc.args, code, tc.code, out, errs, want)
		}
	}
}

// copyDir copies the regular files under src to dst, keeping the layout.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMissingLedger pins that reading a ledger never creates one: every
// subcommand on a missing directory exits 2 and leaves no directory behind.
func TestMissingLedger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo")
	for _, args := range [][]string{
		{"list"}, {"show", "latest"}, {"diff", "latest~1", "latest"}, {"equal", "latest~1", "latest"}, {"merge", "latest~1", "latest"},
	} {
		if code, _, errs := runCtl(t, append([]string{"-dir", dir}, args...)...); code != 2 || !strings.Contains(errs, dir) {
			t.Errorf("%v on a missing ledger: exit %d, want 2 naming the directory: %s", args, code, errs)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("reading a missing ledger created it: %v", err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if code, out, _ := runCtl(t, "-dir", dir, "list"); code != 0 || !strings.Contains(out, "is empty") {
		t.Errorf("empty ledger: exit %d:\n%s", code, out)
	}
	for _, args := range [][]string{{}, {"frobnicate"}, {"-nope", "list"}} {
		if code, _, _ := runCtl(t, append([]string{"-dir", dir}, args...)...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
