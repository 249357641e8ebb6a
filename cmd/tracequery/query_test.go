package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmac"
)

// updateGolden regenerates the checked-in golden outputs:
//
//	go test ./cmd/tracequery -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedJourneys runs a small deterministic DBDP simulation and returns its
// journeys JSONL stream. Any change to protocol decisions, RNG derivation or
// the journey codec shows up as a golden diff downstream.
func fixedJourneys(t *testing.T) []byte {
	t.Helper()
	// Deliberately overloaded (12 links at p = 0.5 need ~22 slot-equivalents
	// per ~16-slot interval), so the golden output exercises the miss causes,
	// not just deliveries.
	links := make([]rtmac.Link, 12)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.5,
			Arrivals:      rtmac.MustBernoulliArrivals(0.9),
			DeliveryRatio: 0.8,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     424242,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	j, err := s.EnableJourneys(&out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(60); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// runQuery executes tracequery's entry point over in-memory input via a temp
// file and returns its stdout.
func runQuery(t *testing.T, input []byte, args ...string) (string, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journeys.jsonl")
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run(append(args, path), &out)
	if code == 0 && err != nil {
		t.Fatalf("exit 0 with error: %v", err)
	}
	return out.String(), code
}

// checkErr runs tracequery -check over input and returns the exit code and
// the error text.
func checkErr(t *testing.T, input []byte) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journeys.jsonl")
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := run([]string{"-check", path}, &bytes.Buffer{})
	if err == nil {
		return code, ""
	}
	return code, err.Error()
}

// TestGoldenOutput pins tracequery's exact output for a fixed seed, for the
// summary, per-link and pretty-print views.
func TestGoldenOutput(t *testing.T) {
	input := fixedJourneys(t)
	views := map[string][]string{
		"summary.txt": {},
		"by_link.txt": {"-by-link"},
		"print.txt":   {"-cause", "delivered", "-print", "3"},
	}
	for name, args := range views {
		t.Run(name, func(t *testing.T) {
			got, code := runQuery(t, input, args...)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			path := filepath.Join("testdata", name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("golden mismatch for %s.\nGot:\n%s\nWant:\n%s\n"+
					"(intentional behaviour change? regenerate with -update)", name, got, want)
			}
		})
	}
}

func TestCheckMode(t *testing.T) {
	input := fixedJourneys(t)
	out, code := runQuery(t, input, "-check")
	if code != 0 {
		t.Fatalf("valid stream rejected (exit %d): %s", code, out)
	}
	if !strings.Contains(out, "all spans valid") {
		t.Fatalf("unexpected check output: %q", out)
	}

	// A malformed line fails with exit 1 and names its line, counting the
	// schema header the stream opens with.
	header, body, _ := bytes.Cut(input, []byte("\n"))
	broken := bytes.Join([][]byte{header, []byte("this is not json"), body}, []byte("\n"))
	if code, err := checkErr(t, broken); code != 1 || !strings.Contains(err, "line 2:") {
		t.Fatalf("malformed line: exit %d, error %q, want exit 1 at line 2", code, err)
	}
	// A header of another schema is the line the read stops on.
	foreign := append([]byte(`{"schema":"rtmac.events","schema_version":1}`+"\n"), body...)
	if code, err := checkErr(t, foreign); code != 1 || !strings.Contains(err, "line 1:") {
		t.Fatalf("foreign header: exit %d, error %q, want exit 1 at line 1", code, err)
	}

	// A structurally invalid span (valid JSON, broken invariants) also fails.
	valid, _, _ := bytes.Cut(body, []byte("\n"))
	invalid := []byte(string(valid) + "\n" + `{"seq":0,"k":0,"link":0,"idx":0,"arrived":0,"deadline":100,"cause":"delivered"}` + "\n")
	if code, err := checkErr(t, invalid); code != 1 || !strings.Contains(err, "line 2:") {
		t.Fatalf("invalid span: exit %d, error %q, want exit 1 at line 2", code, err)
	}
}

func TestFilters(t *testing.T) {
	input := fixedJourneys(t)
	all, _ := runQuery(t, input)
	link3, _ := runQuery(t, input, "-link", "3")
	if all == link3 {
		t.Fatal("-link filter had no effect")
	}
	if !strings.HasPrefix(link3, "journeys: ") {
		t.Fatalf("unexpected summary: %q", link3)
	}
	delivered, _ := runQuery(t, input, "-cause", "delivered")
	if !strings.Contains(delivered, "delivery delay (us): p50=") {
		t.Fatalf("no delay percentiles for delivered journeys: %q", delivered)
	}
}

func TestUsageErrors(t *testing.T) {
	input := []byte("{}\n")
	if _, code := runQuery(t, input, "-cause", "gremlins"); code != 2 {
		t.Fatal("unknown cause accepted")
	}
	var out bytes.Buffer
	if code, _ := run([]string{"a.jsonl", "b.jsonl"}, &out); code != 2 {
		t.Fatal("two positional files accepted")
	}
	if code, _ := run([]string{"/nonexistent/path.jsonl"}, &out); code != 2 {
		t.Fatal("missing file accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	out, code := runQuery(t, nil)
	if code != 0 {
		t.Fatalf("empty input rejected (exit %d)", code)
	}
	if !strings.Contains(out, "journeys: 0") {
		t.Fatalf("unexpected output for empty input: %q", out)
	}
	if out2, code := runQuery(t, nil, "-check"); code != 0 || !strings.Contains(out2, "0 journeys") {
		t.Fatalf("empty check failed: exit %d, %q", code, out2)
	}
}
