package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmac"
)

// recordRun records the event stream and every packet journey of a
// 400-interval DB-DP run with seed 7, optionally perturbed, and returns the
// two paths.
func recordRun(t *testing.T, perturb *rtmac.Perturbation) (events, journeys string) {
	t.Helper()
	dir := t.TempDir()
	events, journeys = filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "journeys.jsonl")
	links := make([]rtmac.Link, 10)
	for i := range links {
		links[i] = rtmac.Link{SuccessProb: 0.7, Arrivals: rtmac.MustBernoulliArrivals(0.78), DeliveryRatio: 0.99}
	}
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed: 7, Profile: rtmac.ControlProfile(), Links: links, Protocol: rtmac.DBDP(), Perturb: perturb,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ev, jb bytes.Buffer
	stream := sim.StreamEvents(&ev)
	jt, err := sim.EnableJourneys(&jb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(400); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(events, ev.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journeys, jb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return events, journeys
}

func runDiff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code, err := run(args, &out)
	if code == 2 {
		t.Fatalf("rundiff %v: exit 2: %v", args, err)
	}
	return code, out.String()
}

// TestDivergenceDrill is the determinism contract end to end: two runs of
// one seed compare equal, and one extra arrival injected at interval 123
// diverges both streams exactly there.
func TestDivergenceDrill(t *testing.T) {
	aEv, aJ := recordRun(t, nil)
	bEv, bJ := recordRun(t, nil)
	pEv, pJ := recordRun(t, &rtmac.Perturbation{K: 123, Link: 2, Extra: 1})

	for _, pair := range [][2]string{{aEv, bEv}, {aJ, bJ}} {
		if code, out := runDiff(t, "-check-equal", pair[0], pair[1]); code != 0 {
			t.Errorf("same-seed runs differ:\n%s", out)
		}
	}

	code, out := runDiff(t, aEv, pEv)
	if code != 1 || !strings.Contains(out, "k=123 ") {
		t.Errorf("event streams: exit %d, want 1 pointing at k=123:\n%s", code, out)
	}
	_, out = runDiff(t, "-json", aEv, pEv)
	var ev struct {
		Equal      bool `json:"equal"`
		Divergence struct {
			A struct {
				K int64 `json:"k"`
			} `json:"a"`
		} `json:"divergence"`
	}
	if err := json.Unmarshal([]byte(out), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Equal || ev.Divergence.A.K != 123 {
		t.Errorf("event diff: equal %v, first divergence at k=%d; want k=123", ev.Equal, ev.Divergence.A.K)
	}

	code, out = runDiff(t, aJ, pJ)
	if code != 1 || !strings.Contains(out, "delivery ratio") {
		t.Errorf("journeys: exit %d, want 1 with the delivery-ratio attribution:\n%s", code, out)
	}
	_, out = runDiff(t, "-json", aJ, pJ)
	var jd struct {
		Equal bool  `json:"equal"`
		OnlyA int64 `json:"only_a"`
		OnlyB int64 `json:"only_b"`
		First struct {
			A struct {
				K int64 `json:"k"`
			} `json:"a"`
		} `json:"first"`
	}
	if err := json.Unmarshal([]byte(out), &jd); err != nil {
		t.Fatal(err)
	}
	if jd.Equal || jd.OnlyA != 0 || jd.OnlyB != 1 || jd.First.A.K != 123 {
		t.Errorf("journey diff = %+v; want the one injected packet only in b and the first mismatch at k=123", jd)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"one"}, {"-mode", "xml", "a", "b"}, {"missing-a", "missing-b"}} {
		if code, _ := run(args, &bytes.Buffer{}); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
