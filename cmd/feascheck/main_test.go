package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func runFeas(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFactoryScenarioJSON checks the document rtmacwatch -slo consumes: the
// feasible factory scenario exits 0 and carries one positive requirement
// per link, indexed in order.
func TestFactoryScenarioJSON(t *testing.T) {
	code, out, errs := runFeas(t, "-config", "../../scenarios/factory.json", "-json")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (feasible):\n%s", code, errs)
	}
	var doc report
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Feasible || !doc.NecessaryBoundsOK || doc.MarginSlots <= 0 {
		t.Errorf("factory scenario assessed feasible=%v bounds=%v margin=%v", doc.Feasible, doc.NecessaryBoundsOK, doc.MarginSlots)
	}
	if doc.Links == 0 || len(doc.PerLink) != doc.Links {
		t.Fatalf("%d per-link entries for %d links", len(doc.PerLink), doc.Links)
	}
	for i, l := range doc.PerLink {
		if l.Link != i || l.Required <= 0 {
			t.Errorf("per_link[%d] = %+v", i, l)
		}
	}
}

// TestExitCodeFollowsVerdict checks that the uniform flags exit 0 on a
// feasible network and 1 on an overloaded one.
func TestExitCodeFollowsVerdict(t *testing.T) {
	for _, tc := range []struct {
		links    string
		feasible bool
		code     int
	}{{"4", true, 0}, {"12", false, 1}} {
		code, out, errs := runFeas(t, "-links", tc.links, "-intervals", "500", "-json")
		var doc report
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("-links %s: %v\n%s", tc.links, err, errs)
		}
		if doc.Feasible != tc.feasible || code != tc.code {
			t.Errorf("-links %s: feasible=%v exit %d, want %v and %d", tc.links, doc.Feasible, code, tc.feasible, tc.code)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-arrivals", "fixed"},                // the default rate 0.78 is no whole count
		{"-arrivals", "fixed", "-rate", "-2"}, // negative count
		{"-arrivals", "poisson"},
		{"-profile", "lte"},
		{"-links", "0"},
		{"-config", "../../scenarios/spatial.json", "-subsets"}, // a partial conflict graph
		{"-config", "../../scenarios/fading.json", "-subsets"},  // a fading channel
		{"-nope"},
	} {
		if code, _, errs := runFeas(t, args...); code != 2 || errs == "" {
			t.Errorf("%s: exit %d, want 2 with an error", strings.Join(args, " "), code)
		}
	}
}

// TestSpatialScenarioProbesItsGraph checks that the bounds and the probe see
// the scenario's two 5-cliques: each clique carries 5·1.9/0.9 ≈ 10.56 of 16
// slots, and LDF on the graph delivers.
func TestSpatialScenarioProbesItsGraph(t *testing.T) {
	code, out, errs := runFeas(t, "-config", "../../scenarios/spatial.json")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (feasible):\n%s%s", code, out, errs)
	}
	for _, want := range []string{"workload 10.56 of 16", "necessary bounds: satisfied", "empirically FEASIBLE"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestSubsetsReadTheConfig checks that -subsets scans the scenario file's
// links on a fully-interfering static channel. The factory's estop link
// needs λ/p ≈ 0.167 slots per interval, which the Monte-Carlo capacity
// estimate of its subset matches to within sampling error: satisfied.
func TestSubsetsReadTheConfig(t *testing.T) {
	code, out, errs := runFeas(t, "-config", "../../scenarios/factory.json", "-subsets", "-intervals", "500")
	if code == 2 || !strings.Contains(out, "subset bounds: satisfied") {
		t.Fatalf("exit %d:\n%s%s", code, out, errs)
	}
}

// TestSubsetsJSON checks that -json carries the -subsets verdict in
// subset_bounds, and that the field is absent without -subsets.
func TestSubsetsJSON(t *testing.T) {
	for _, args := range [][]string{
		{"-config", "../../scenarios/factory.json", "-json", "-subsets"},
		{"-config", "../../scenarios/factory.json", "-json"},
	} {
		code, out, errs := runFeas(t, append(args, "-intervals", "500")...)
		if code != 0 {
			t.Fatalf("%s: exit %d, want 0:\n%s", strings.Join(args, " "), code, errs)
		}
		var doc struct {
			SubsetBounds *subsetBounds `json:"subset_bounds"`
		}
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatal(err)
		}
		scanned := args[len(args)-1] == "-subsets"
		switch sb := doc.SubsetBounds; {
		case !scanned && sb != nil:
			t.Errorf("%s: subset_bounds present without -subsets: %+v", strings.Join(args, " "), *sb)
		case scanned && (sb == nil || !sb.Satisfied || sb.WorstViolation != ""):
			t.Errorf("%s: subset_bounds %+v, want satisfied with no violation", strings.Join(args, " "), sb)
		}
	}
	// A graph the subset scan cannot read is a usage error with -json too.
	if code, _, errs := runFeas(t, "-config", "../../scenarios/spatial.json", "-json", "-subsets"); code != 2 || errs == "" {
		t.Errorf("-json -subsets on a partial conflict graph: exit %d, want 2 with an error", code)
	}
}
