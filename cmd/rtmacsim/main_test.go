package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rtmac"
	"rtmac/internal/health"
	"rtmac/internal/ledger"
	"rtmac/internal/rundiff"
)

// runSim runs the command in-process and returns its exit code and output.
func runSim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// record runs the command with -record into a fresh directory, failing the
// test unless it exits 0 and writes every artifact non-empty, and returns
// the directory.
func record(t *testing.T, args ...string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "run")
	if code, out, errs := runSim(t, append(args, "-record", dir)...); code != 0 {
		t.Fatalf("rtmacsim %v exited %d:\n%s%s", args, code, out, errs)
	}
	for _, name := range []string{"events.jsonl", "journeys.jsonl", "flight.jsonl", "flight.txt",
		"trace.json", "metrics.prom", "metrics.json", "manifest.json"} {
		if info, err := os.Stat(filepath.Join(dir, name)); err != nil || info.Size() == 0 {
			t.Fatalf("record directory lacks a non-empty %s: %v", name, err)
		}
	}
	return dir
}

// readEvents decodes a recorded event stream.
func readEvents(t *testing.T, path string) []rtmac.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := rtmac.DecodeEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// uniform builds the configuration of a small uniform network after edit
// changes the flag defaults.
func uniform(edit func(*options)) (rtmac.Config, error) {
	o := options{protocol: "dbdp", profile: "control", links: 3, p: 0.7, arrivals: "bernoulli",
		rate: 0.5, ratio: 0.9, intervals: 10, seed: 1, pairs: 1, perturbK: -1}
	edit(&o)
	cfg, _, _, err := o.scenario()
	return cfg, err
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"video", "control"} {
		cfg, err := uniform(func(o *options) { o.profile = name })
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if cfg.Profile.Name() != name {
			t.Errorf("-profile %s built profile %q", name, cfg.Profile.Name())
		}
	}
	if _, err := uniform(func(o *options) { o.profile = "lte" }); err == nil {
		t.Error("unknown profile accepted")
	}
	if code, _, _ := runSim(t, "-profile", "lte"); code != 2 {
		t.Errorf("unknown profile exited %d, want 2", code)
	}
}

func TestArrivalsByName(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rate, mean float64
	}{
		{"bernoulli", 0.5, 0.5},
		{"video", 0.4, -1},
		{"fixed", 2, 2},
		{"fixed", 0, 0},
	} {
		cfg, err := uniform(func(o *options) { o.arrivals, o.rate = tc.name, tc.rate })
		if err != nil {
			t.Errorf("%s %v: %v", tc.name, tc.rate, err)
			continue
		}
		if tc.mean >= 0 && cfg.Links[0].Arrivals.Mean() != tc.mean {
			t.Errorf("%s %v: mean %v, want %v", tc.name, tc.rate, cfg.Links[0].Arrivals.Mean(), tc.mean)
		}
	}
	for _, bad := range []struct {
		name string
		rate float64
	}{
		{"poisson", 1},   // unknown process
		{"bernoulli", 2}, // not a probability
		{"fixed", 0.78},  // would truncate to no traffic at all
		{"fixed", -1.98}, // negative count
		{"fixed", 2.5},   // fractional count
	} {
		if _, err := uniform(func(o *options) { o.arrivals, o.rate = bad.name, bad.rate }); err == nil {
			t.Errorf("-arrivals %s -rate %v accepted", bad.name, bad.rate)
		}
	}
	// The default -rate is no packet count: -arrivals fixed alone must fail
	// rather than run a network without traffic.
	if code, _, errs := runSim(t, "-arrivals", "fixed"); code != 2 || !strings.Contains(errs, "0.78") {
		t.Errorf("-arrivals fixed with the default rate exited %d: %s", code, errs)
	}
}

func TestProtocolByName(t *testing.T) {
	for _, name := range []string{"dbdp", "ldf", "eldf", "fcsma", "framecsma", "tdma", "dcf"} {
		cfg, err := uniform(func(o *options) { o.protocol = name })
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if cfg.Protocol.Label() == "" {
			t.Errorf("%s: empty label", name)
		}
	}
	for _, tc := range []struct {
		protocol string
		pairs    int
		ok       bool
	}{
		{"aloha", 1, false},
		{"dbdp", 3, true},
		{"dbdp", 0, false},
		{"ldf", 2, false},
	} {
		_, err := uniform(func(o *options) { o.protocol, o.pairs = tc.protocol, tc.pairs })
		if (err == nil) != tc.ok {
			t.Errorf("-protocol %s -pairs %d: error %v, want ok=%v", tc.protocol, tc.pairs, err, tc.ok)
		}
	}
}

// TestCheck is the -check table: a fresh record directory passes, and
// corrupting one artifact fails the check of that artifact alone and of the
// whole directory, for each of the four validators.
func TestCheck(t *testing.T) {
	dir := record(t, "-links", "5", "-intervals", "60", "-seed", "3", "-health", "-slot-budget", "-1ns")
	if info, err := os.Stat(filepath.Join(dir, "health.json")); err != nil || info.Size() == 0 {
		t.Fatalf("-health recording lacks a non-empty health.json: %v", err)
	}
	if code, out, errs := runSim(t, "-check", dir); code != 0 {
		t.Fatalf("fresh record directory failed -check (exit %d):\n%s%s", code, out, errs)
	}
	// A forged collision in the collision-free DB-DP run.
	forged := `{"k":0,"at":150,"link":0,"kind":"tx","fields":{"dur":100,"empty":0,"outcome":2}}` + "\n"
	for _, tc := range []struct {
		name, artifact string
		corrupt        func([]byte) []byte
		want           string
	}{
		{"event audit", "events.jsonl", func(b []byte) []byte { return append([]byte(forged), b...) }, "invariant violations"},
		{"flight recorder audit", "flight.jsonl", func(b []byte) []byte { return append([]byte(forged), b...) }, "invariant violations"},
		{"event format", "events.jsonl", func(b []byte) []byte { return append(b, "{not json\n"...) }, "events.jsonl"},
		{"perfetto", "trace.json", func(b []byte) []byte { return b[:len(b)/2] }, "trace.json"},
		{"prometheus", "metrics.prom", func(b []byte) []byte { return append(b, "rtmac_undeclared_total 1\n"...) }, "metrics.prom"},
		{"health document", "health.json", func([]byte) []byte { return []byte(`{"enabled":true}`) }, "health.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := t.TempDir()
			for _, name := range []string{"events.jsonl", "flight.jsonl", "trace.json", "metrics.prom", "health.json"} {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if name == tc.artifact {
					data = tc.corrupt(data)
				}
				if err := os.WriteFile(filepath.Join(bad, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for _, path := range []string{filepath.Join(bad, tc.artifact), bad} {
				code, _, errs := runSim(t, "-check", path)
				if code != 1 || !strings.Contains(errs, tc.want) {
					t.Errorf("-check %s exited %d, want 1 naming %q:\n%s", path, code, tc.want, errs)
				}
			}
		})
	}
	t.Run("missing artifact", func(t *testing.T) {
		if err := os.Remove(filepath.Join(dir, "trace.json")); err != nil {
			t.Fatal(err)
		}
		if code, _, _ := runSim(t, "-check", dir); code != 1 {
			t.Errorf("directory without trace.json exited %d, want 1", code)
		}
	})
	t.Run("unknown artifact", func(t *testing.T) {
		if code, _, _ := runSim(t, "-check", filepath.Join(dir, "flight.txt")); code != 2 {
			t.Errorf("-check on flight.txt exited %d, want 2", code)
		}
	})
}

// TestRecordArtifacts checks what -record writes for a short strict DB-DP
// run: the metrics count every transmission of the event stream, the
// manifest names the run, and every packet's journey is recorded with valid
// spans.
func TestRecordArtifacts(t *testing.T) {
	dir := record(t, "-protocol", "dbdp", "-intervals", "300", "-strict")
	tx := 0
	for _, ev := range readEvents(t, filepath.Join(dir, "events.jsonl")) {
		if ev.Kind == "tx" {
			tx++
		}
	}
	got := readMetrics(t, dir)
	if tx == 0 || got["rtmac_tx_total"] != float64(tx) {
		t.Errorf("rtmac_tx_total = %v, event stream holds %d tx events", got["rtmac_tx_total"], tx)
	}
	if v, ok := got["rtmac_monitor_violations_total"]; !ok || v != 0 {
		t.Errorf("rtmac_monitor_violations_total = %v (present %v), want 0", v, ok)
	}
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := rtmac.ValidatePrometheusText(bytes.NewReader(prom)); err != nil || n == 0 {
		t.Errorf("metrics.prom: %d samples, %v", n, err)
	}
	var manifest struct {
		Tool      string `json:"tool"`
		Intervals int    `json:"intervals"`
		Events    int    `json:"events"`
	}
	readJSON(t, filepath.Join(dir, "manifest.json"), &manifest)
	if manifest.Tool != "rtmacsim" || manifest.Intervals != 300 || manifest.Events == 0 {
		t.Errorf("manifest = %+v", manifest)
	}
	f, err := os.Open(filepath.Join(dir, "journeys.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	journeys, err := rtmac.DecodeJourneys(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(journeys) == 0 {
		t.Fatal("no journeys recorded")
	}
	delivered := 0
	for i := range journeys {
		if err := journeys[i].Validate(); err != nil {
			t.Fatalf("journey %d: %v", i, err)
		}
		if journeys[i].Cause == "delivered" {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("no journey was delivered")
	}
	timeline, err := os.ReadFile(filepath.Join(dir, "flight.txt"))
	if err != nil || !bytes.Contains(timeline, []byte("== interval 299 ==")) {
		t.Errorf("flight.txt does not reach the final interval: %v", err)
	}
	if code, out, errs := runSim(t, "-check", dir); code != 0 {
		t.Errorf("-check exited %d:\n%s%s", code, out, errs)
	}
}

// readMetrics returns the values of the metrics.json a record directory
// holds, by metric name.
func readMetrics(t *testing.T, dir string) map[string]float64 {
	t.Helper()
	var metrics []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	readJSON(t, filepath.Join(dir, "metrics.json"), &metrics)
	values := make(map[string]float64, len(metrics))
	for _, m := range metrics {
		values[m.Name] = m.Value
	}
	return values
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestRecordIsDeterministic records one seed twice and once with an extra
// arrival injected at interval 123: the twins must be byte-identical, and
// the perturbed run must first diverge exactly at k=123.
func TestRecordIsDeterministic(t *testing.T) {
	args := []string{"-protocol", "dbdp", "-intervals", "400", "-seed", "7"}
	a, b := record(t, args...), record(t, args...)
	p := record(t, append(args, "-perturb-interval", "123", "-perturb-link", "2")...)
	for _, name := range []string{"events.jsonl", "journeys.jsonl"} {
		da, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(da) == 0 || !bytes.Equal(da, db) {
			t.Errorf("%s differs between two runs of one seed", name)
		}
	}
	fa, err := os.Open(filepath.Join(a, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fp, err := os.Open(filepath.Join(p, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	d, err := rundiff.DiffEvents(fa, fp, rundiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal || d.Divergence.K() != 123 {
		t.Fatalf("perturbed run: equal %v, divergence %+v; want first divergence at k=123", d.Equal, d.Divergence)
	}
}

// TestConflictScenario runs the two-clique spatial-reuse scenario under the
// strict monitor: the conflict graph reaches the stream, no transmission
// collides, the aggregate data airtime exceeds what one fully-interfering
// channel could carry, and the recording audits clean.
func TestConflictScenario(t *testing.T) {
	dir := record(t, "-config", "../../scenarios/spatial.json", "-strict")
	var (
		links    = map[int]bool{}
		edges    int
		collided int
		dataUS   float64
		lastAt   rtmac.Time
	)
	for _, ev := range readEvents(t, filepath.Join(dir, "events.jsonl")) {
		switch ev.Kind {
		case "conflict":
			edges++
		case "tx":
			links[ev.Link] = true
			if ev.Fields["outcome"] == 2 {
				collided++
			}
			if ev.Fields["empty"] == 0 {
				dataUS += ev.Fields["dur"]
			}
		}
		lastAt = max(lastAt, ev.At)
	}
	if len(links) != 10 || edges != 20 {
		t.Errorf("stream carries %d transmitting links and %d conflict edges, want 10 and 20", len(links), edges)
	}
	if collided != 0 {
		t.Errorf("%d collided transmissions under DB-DP on a clique union", collided)
	}
	// Two disjoint cliques carry at most two transmissions at a time.
	if dataUS <= float64(lastAt) || dataUS >= 2*float64(lastAt) {
		t.Errorf("data airtime %vµs is not between one and two times the %vµs of channel time", dataUS, lastAt)
	}
	if v, ok := readMetrics(t, dir)["rtmac_monitor_violations_total"]; !ok || v != 0 {
		t.Errorf("rtmac_monitor_violations_total = %v (present %v), want 0", v, ok)
	}
	if code, out, errs := runSim(t, "-check", dir); code != 0 {
		t.Fatalf("-check exited %d:\n%s%s", code, out, errs)
	}
}

// TestWatchScenario runs the feasible factory scenario with the SLO watch
// engine: clean it raises no alert, and with 40 extra packets injected at
// interval 600 its expiry-spike detector fires.
func TestWatchScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("two 20000-interval runs")
	}
	clean := readMetrics(t, record(t, "-config", "../../scenarios/factory.json", "-watch"))
	if n, ok := clean["rtmac_watch_alerts_total"]; !ok || n != 0 {
		t.Errorf("feasible factory scenario: rtmac_watch_alerts_total = %v (present %v), want 0", n, ok)
	}
	spiked := readMetrics(t, record(t, "-config", "../../scenarios/factory.json", "-watch",
		"-perturb-interval", "600", "-perturb-link", "0", "-perturb-extra", "40"))
	if spiked["rtmac_watch_alerts_total_expiry_spike"] == 0 {
		t.Error("injected burst raised no expiry_spike alert")
	}
}

// TestSLOBudgetOutOfRange checks that -slo-budget outside [0, 1], NaN
// included, fails the run before it starts.
func TestSLOBudgetOutOfRange(t *testing.T) {
	for _, b := range []string{"NaN", "-0.1", "1.5"} {
		code, _, errs := runSim(t, "-links", "2", "-intervals", "5", "-slo-budget", b)
		if code != 1 || !strings.Contains(errs, "miss budget") {
			t.Errorf("-slo-budget %s exited %d (%q), want 1 with a miss-budget error", b, code, errs)
		}
	}
}

// TestLedgerDetectsDegradedRun appends a run and a degraded rerun of the
// same seed to a ledger; the ledger's diff must flag the regression.
func TestLedgerDetectsDegradedRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	for _, p := range []string{"0.7", "0.45"} {
		if code, out, errs := runSim(t, "-protocol", "dbdp", "-intervals", "1000", "-seed", "7", "-p", p, "-ledger", dir); code != 0 {
			t.Fatalf("-p %s exited %d:\n%s%s", p, code, out, errs)
		}
	}
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := store.Get("latest~1")
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := store.Get("latest")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Seeds) != 1 || base.Seeds[0] != 7 || len(base.Points) != 1+2*10 {
		t.Errorf("record carries seeds %v and %d points, want [7] and 21", base.Seeds, len(base.Points))
	}
	rep, err := ledger.Diff(base, degraded, ledger.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasRegression() {
		t.Error("degraded run (-p 0.45 against 0.7) not flagged as a regression")
	}
}

// syncBuffer is a bytes.Buffer safe to read while the command writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// server is a -serve run of the command in the background.
type server struct {
	url    string
	stdout *syncBuffer
	done   chan int
	cancel context.CancelFunc
}

// serve starts a -serve run on a free port and waits until the run is
// complete and the plane serves its final state.
func serve(t *testing.T, args ...string) *server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{stdout: &syncBuffer{}, done: make(chan int, 1), cancel: cancel}
	go func() { s.done <- run(ctx, append(args, "-serve", "127.0.0.1:0"), s.stdout, io.Discard) }()
	const marker = "run complete; serving final state on http://"
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		out := s.stdout.String()
		if i := strings.Index(out, marker); i >= 0 {
			rest := out[i+len(marker):]
			s.url = "http://" + rest[:strings.IndexAny(rest, " \n")]
			return s
		}
		select {
		case code := <-s.done:
			t.Fatalf("server exited %d before serving:\n%s", code, out)
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("run did not complete:\n%s", out)
		}
	}
}

// wait returns the command's exit code once it has shut down.
func (s *server) wait(t *testing.T) int {
	t.Helper()
	select {
	case code := <-s.done:
		return code
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
		return -1
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return body
}

// TestServe drives the live observability plane: every endpoint answers,
// the scrape is a valid exposition, progress reports the planned run, and
// SIGTERM shuts the server down with a clean exit.
func TestServe(t *testing.T) {
	srv := serve(t, "-protocol", "dbdp", "-intervals", "2000")
	defer srv.cancel()
	url := srv.url
	if body := get(t, url+"/healthz"); strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %q", body)
	}
	if n, err := rtmac.ValidatePrometheusText(bytes.NewReader(get(t, url+"/metrics"))); err != nil || n == 0 {
		t.Errorf("/metrics: %d samples, %v", n, err)
	}
	var progress struct {
		Planned int64 `json:"planned_intervals"`
	}
	if err := json.Unmarshal(get(t, url+"/api/progress"), &progress); err != nil || progress.Planned != 2000 {
		t.Errorf("/api/progress planned_intervals = %d, %v; want 2000", progress.Planned, err)
	}
	if body := get(t, url+"/"); !bytes.Contains(bytes.ToLower(body), []byte("<html")) {
		t.Error("dashboard is not HTML")
	}
	// The plane watches for SIGTERM from before it reports the run
	// complete, so the signal reaches it rather than the test process.
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := srv.wait(t); code != 0 {
		t.Errorf("server exited %d after SIGTERM, want 0", code)
	}
}

// TestHealthPlane serves a run with the runtime health plane and the
// profile ring live: /api/health must serve a valid enabled document, the
// ring must capture a CPU profile that pprof can read, and health.json
// lands in the record directory at shutdown.
func TestHealthPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("waits for a one-second CPU profile")
	}
	ring := filepath.Join(t.TempDir(), "ring")
	dir := filepath.Join(t.TempDir(), "run")
	srv := serve(t, "-protocol", "dbdp", "-intervals", "3000",
		"-health", "-profilering", ring, "-record", dir)
	defer srv.cancel()
	var cpu string
	for deadline := time.Now().Add(20 * time.Second); cpu == "" && time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		entries, _ := health.ReadManifest(ring)
		for _, e := range entries {
			if e.Type == "cpu" {
				cpu = filepath.Join(ring, e.File)
			}
		}
	}
	if cpu == "" {
		t.Fatal("profile ring captured no CPU profile")
	}
	doc, err := health.ValidateDoc(bytes.NewReader(get(t, srv.url+"/api/health")))
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Enabled || doc.Ring == nil {
		t.Errorf("/api/health: enabled %v, ring %v", doc.Enabled, doc.Ring)
	}
	srv.cancel()
	if code := srv.wait(t); code != 0 {
		t.Fatalf("server exited %d after cancel, want 0", code)
	}
	if !strings.Contains(srv.stdout.String(), "\nhealth: ") {
		t.Errorf("no health summary line:\n%s", srv.stdout.String())
	}
	if code, out, errs := runSim(t, "-check", filepath.Join(dir, "health.json")); code != 0 {
		t.Errorf("health.json failed -check (exit %d):\n%s%s", code, out, errs)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to run pprof")
	}
	if out, err := exec.Command(goTool, "tool", "pprof", "-raw", cpu).CombinedOutput(); err != nil {
		t.Errorf("pprof cannot read %s: %v\n%s", cpu, err, out)
	}
}

// TestCloseAllRunsEveryStep pins the close-on-error contract: a failing
// step neither stops the later ones nor hides its error.
func TestCloseAllRunsEveryStep(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "tail.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var buffered bytes.Buffer
	buffered.WriteString(`{"k":0}` + "\n")
	errFirst, errLast := errors.New("first"), errors.New("last")
	ran := 0
	err = closeAll(
		func() error { ran++; return errFirst },
		func() error { ran++; _, err := buffered.WriteTo(f); return err },
		func() error { ran++; return f.Close() },
		func() error { ran++; return errLast },
	)
	if ran != 4 {
		t.Fatalf("%d of 4 steps ran", ran)
	}
	if !errors.Is(err, errFirst) || !errors.Is(err, errLast) {
		t.Fatalf("joined error %v lost a failure", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "tail.jsonl"))
	if err != nil || string(data) != `{"k":0}`+"\n" {
		t.Fatalf("buffered tail not flushed after a failing step: %q, %v", data, err)
	}
	if closeAll() != nil {
		t.Fatal("no steps, yet an error")
	}
}

// TestFailedRunFlushesRecord fails a recorded run after its streams are
// open (an unwritable CPU profile) and requires each stream's buffered
// header to reach the file, ending on a whole line.
func TestFailedRunFlushesRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	code, _, errs := runSim(t, "-intervals", "50", "-record", dir,
		"-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.pprof"))
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, errs)
	}
	for _, name := range []string{"events.jsonl", "journeys.jsonl"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || data[len(data)-1] != '\n' {
			t.Errorf("%s lost its buffered tail: %q", name, data)
		}
	}
}
