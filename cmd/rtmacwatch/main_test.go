package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmac"
	"rtmac/internal/watch"
	"rtmac/scenario"
)

// recordRun simulates a short feasible DB-DP run (5 links, the paper's
// control-profile parameters) and returns the recorded event stream path.
func recordRun(t *testing.T, intervals int) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	links := make([]rtmac.Link, 5)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed: 7, Profile: rtmac.ControlProfile(), Links: links, Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stream := s.StreamEvents(f)
	if err := s.Run(intervals); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func runWatch(ctx context.Context, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestResolveTargets(t *testing.T) {
	targets, _, err := resolveTargets("0.5, 0.25,1", "", "")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.25, 1}
	for i, q := range want {
		if targets[i] != q {
			t.Errorf("target %d = %v, want %v", i, targets[i], q)
		}
	}
	if _, _, err := resolveTargets("", "", ""); err == nil {
		t.Error("no source accepted")
	}
	if _, _, err := resolveTargets("0.5", "x.json", ""); err == nil {
		t.Error("two sources accepted")
	}
	if _, _, err := resolveTargets("0.5,nope", "", ""); err == nil {
		t.Error("malformed -q accepted")
	}
}

func TestReplayConformingStream(t *testing.T) {
	path := recordRun(t, 1200)
	// The five links are comfortably feasible at their true targets
	// q = 0.99 · 0.78, so a conforming audit exits 0 with zero alerts.
	code, stdout, stderr := runWatch(context.Background(),
		"-q", "0.7722,0.7722,0.7722,0.7722,0.7722", path)
	if code != 0 {
		t.Fatalf("conforming stream exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, " 0 alerts") {
		t.Errorf("summary missing zero-alert count: %s", stdout)
	}
}

func TestReplayFlagsStarvedTargets(t *testing.T) {
	path := recordRun(t, 1200)
	// Demanding 1.5 delivered packets/interval per link (aggregate 7.5 of a
	// ~3.9 packet budget) starves every link: the burn-rate detector must
	// fire once its slow window primes.
	code, stdout, _ := runWatch(context.Background(),
		"-q", "1.5,1.5,1.5,1.5,1.5", path)
	if code != 1 {
		t.Fatalf("starved targets exited %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "burn_rate") {
		t.Errorf("expected burn_rate alerts, got: %s", stdout)
	}
}

func TestCheckModeSuppressesAlertLines(t *testing.T) {
	path := recordRun(t, 1200)
	code, stdout, _ := runWatch(context.Background(),
		"-check", "-q", "1.5,1.5,1.5,1.5,1.5", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if !strings.HasPrefix(line, "rtmacwatch:") {
			t.Errorf("-check leaked a non-summary line: %q", line)
		}
	}
}

func TestAlertsArtifact(t *testing.T) {
	path := recordRun(t, 1200)
	alertsPath := filepath.Join(t.TempDir(), "alerts.jsonl")
	code, _, _ := runWatch(context.Background(),
		"-check", "-alerts", alertsPath, "-q", "1.5,1.5,1.5,1.5,1.5", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	data, err := os.ReadFile(alertsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"burn_rate"`)) {
		t.Errorf("alerts artifact missing burn_rate transitions: %s", data)
	}
}

// recordScenario records the full event stream of a scenario file's run,
// optionally perturbed, and returns its path.
func recordScenario(t *testing.T, path string, perturb *rtmac.Perturbation) string {
	t.Helper()
	cfg, _, intervals, err := scenario.LoadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Perturb = perturb
	s, err := rtmac.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stream := s.StreamEvents(f)
	if err := s.Run(intervals); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFactoryScenario audits the feasible factory scenario: its recorded
// stream conforms to the requirement vector of a feasibility document (the
// per_link section `feascheck -json` emits), and a replay with 40 extra
// packets injected at interval 600 raises the expiry spike, exit 1 exactly,
// with the alert persisted to the -alerts artifact.
func TestFactoryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("two 20000-interval runs")
	}
	const factory = "../../scenarios/factory.json"
	cfg, _, _, err := scenario.LoadAnyFile(factory)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rtmac.CheckFeasibility(cfg, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("factory scenario assessed infeasible")
	}
	doc, err := json.Marshal(map[string]any{"feasible": res.Feasible, "per_link": res.PerLink})
	if err != nil {
		t.Fatal(err)
	}
	slo := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(slo, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errs := runWatch(context.Background(), "-check", "-slo", slo, recordScenario(t, factory, nil)); code != 0 {
		t.Fatalf("clean factory stream: exit %d, want 0:\n%s%s", code, out, errs)
	}

	spiked := recordScenario(t, factory, &rtmac.Perturbation{K: 600, Link: 0, Extra: 40})
	alertsPath := filepath.Join(t.TempDir(), "alerts.jsonl")
	if code, out, errs := runWatch(context.Background(), "-check", "-alerts", alertsPath, "-scenario", factory, spiked); code != 1 {
		t.Fatalf("perturbed factory stream: exit %d, want 1:\n%s%s", code, out, errs)
	}
	data, err := os.ReadFile(alertsPath)
	if err != nil {
		t.Fatal(err)
	}
	spikes := 0
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var a watch.Alert
		if err := json.Unmarshal(line, &a); err != nil {
			t.Fatalf("alert line %q: %v", line, err)
		}
		if a.Detector == watch.DetectorExpirySpike {
			spikes++
		}
	}
	if spikes == 0 {
		t.Errorf("alerts artifact has no expiry spike:\n%s", data)
	}
}

func TestTargetsFromSLODoc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slo.json")
	doc := `{"feasible": true, "per_link": [
		{"link": 1, "required": 0.25, "success_prob": 0.7, "arrival_rate": 0.5},
		{"link": 0, "required": 0.75, "success_prob": 0.7, "arrival_rate": 1.0}
	]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	targets, err := targetsFromSLODoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || targets[0] != 0.75 || targets[1] != 0.25 {
		t.Errorf("targets = %v, want [0.75 0.25] (ordered by link index)", targets)
	}
	bad := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(bad, []byte(`{"feasible": false}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := targetsFromSLODoc(bad); err == nil {
		t.Error("document without per_link accepted")
	}
}

func TestTargetsFromScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	doc := `{
		"seed": 1, "intervals": 100,
		"profile": {"preset": "control"},
		"protocol": {"name": "dbdp"},
		"links": [
			{"count": 2, "successProb": 0.7,
			 "arrivals": {"type": "bernoulli", "param": 0.5}, "deliveryRatio": 0.9}
		],
		"slo": {"budget": 0.2, "targets": [0.4, 0.3]}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	targets, budget, err := targetsFromScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || targets[0] != 0.4 || targets[1] != 0.3 {
		t.Errorf("targets = %v, want the scenario's slo section [0.4 0.3]", targets)
	}
	if budget != 0.2 {
		t.Errorf("budget = %v, want 0.2", budget)
	}

	// Without an slo section the feasibility-derived requirement vector
	// (ratio × arrival rate) is the target.
	noSLO := strings.Replace(doc, `"slo": {"budget": 0.2, "targets": [0.4, 0.3]}`, `"slo": null`, 1)
	if err := os.WriteFile(path, []byte(noSLO), 0o644); err != nil {
		t.Fatal(err)
	}
	targets, budget, err = targetsFromScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if budget != 0 {
		t.Errorf("budget = %v, want 0 (engine default)", budget)
	}
	want := 0.9 * 0.5
	for i, q := range targets {
		if q < want-1e-9 || q > want+1e-9 {
			t.Errorf("target %d = %v, want %v", i, q, want)
		}
	}
}

// TestTailSSE replays a recorded stream through an SSE endpoint shaped like
// the simulator's /events and checks the tail path audits it identically
// to a file replay.
func TestTailSSE(t *testing.T) {
	path := recordRun(t, 1200)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	first := true
	for sc.Scan() {
		if first {
			first = false // schema header is a JSONL artifact, not an SSE event
			if strings.Contains(sc.Text(), "schema") {
				continue
			}
		}
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": stream open\n\n")
		for _, l := range lines {
			fmt.Fprintf(w, "data: %s\n\n", l)
		}
	}))
	defer srv.Close()

	code, stdout, stderr := runWatch(context.Background(),
		"-check", "-q", "0.7722,0.7722,0.7722,0.7722,0.7722", "-tail", srv.URL)
	if code != 0 {
		t.Fatalf("tail audit exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, fmt.Sprintf("%d events", len(lines))) {
		t.Errorf("tail consumed a different event count: %s (served %d)", stdout, len(lines))
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runWatch(context.Background(), "-q", "0.5"); code != 2 {
		t.Errorf("missing input exited %d, want 2", code)
	}
	if code, _, _ := runWatch(context.Background(), "-q", "0.5", "-tail", "http://x", "file.jsonl"); code != 2 {
		t.Errorf("-tail plus file exited %d, want 2", code)
	}
	if code, _, _ := runWatch(context.Background(), "-q", "0.5", "missing-file.jsonl"); code != 2 {
		t.Errorf("unreadable file exited %d, want 2", code)
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errs := runWatch(context.Background(), "-q", "0.5", "-budget", "0.5", empty); code != 0 {
		t.Fatalf("-budget 0.5 on an empty stream exited %d: %s", code, errs)
	}
	for _, b := range []string{"NaN", "-0.1", "1.5"} {
		if code, _, errs := runWatch(context.Background(), "-q", "0.5", "-budget", b, empty); code != 2 || !strings.Contains(errs, "miss budget") {
			t.Errorf("-budget %s exited %d (%q), want 2 with a miss-budget error", b, code, errs)
		}
	}
}
