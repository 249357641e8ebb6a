package main

import (
	"encoding/json"
	"os"
	"testing"

	"rtmac/internal/experiment"
	"rtmac/internal/telemetry"
)

// testScale runs every workload at 1% of its length; its seed-1 digests are
// pinned under "0.01" in testdata/digests.json.
const testScale = 0.01

func testOptions() options { return options{seed: 1, seconds: 0, scale: testScale} }

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON reads the metric declarations of ../BENCHMARK.json.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloadNames[i])
		}
	}
	index := func(ds []declared) map[string]string {
		m := make(map[string]string, len(ds))
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	return index(doc.EndToEnd), index(doc.PerLayer)
}

// sameMetrics requires the result's metrics to be exactly the declared ones,
// units included.
func sameMetrics(t *testing.T, r *result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := r.Metrics[name]
		switch {
		case !ok:
			t.Errorf("declared metric %s missing from the output", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("output metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func checkResult(t *testing.T, r *result) {
	t.Helper()
	for _, n := range r.notes {
		t.Log(n)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
}

// TestWorkloads runs every workload untraced at 1% length: the reps must
// reproduce the pinned seed-1 digest, and the output must carry exactly the
// end-to-end metrics BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	endToEnd, _ := benchmarkJSON(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			if pinned[scaleKey(testScale)][name] == "" {
				t.Fatalf("no pinned digest for %s at scale %g", name, testScale)
			}
			r := runWorkload(name, testOptions())
			checkResult(t, r)
			sameMetrics(t, r, endToEnd)
			for k, m := range r.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v; every one must be positive", k, m.Value)
				}
			}
		})
	}
}

// TestTraced runs every workload traced at 1% length: the traced layers must
// reproduce the untraced run's digest, and the output must carry exactly the
// per-layer metrics BENCHMARK.json declares.
func TestTraced(t *testing.T) {
	_, perLayer := benchmarkJSON(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := runTraced(name, testOptions())
			checkResult(t, r)
			sameMetrics(t, r, perLayer)
		})
	}
}

// TestSweepIntervals checks the interval count the sweep workload divides by
// against the simulated networks' own interval counter.
func TestSweepIntervals(t *testing.T) {
	const scale = 0.001
	reg := telemetry.NewRegistry()
	tr := newSweepTracker()
	want := 0
	for _, id := range sweepFigures {
		fig, err := experiment.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		opts := experiment.RunOptions{Seeds: 1, IntervalScale: scale, Workers: sweepWorkers, Telemetry: reg, Tracker: tr}
		if _, err := fig.Run(opts); err != nil {
			t.Fatal(err)
		}
		want += tr.jobs[id] * scaledIntervals(nativeIntervals[id], scale)
	}
	if got := reg.Counter("rtmac_intervals_total", "").Value(); got != int64(want) {
		t.Fatalf("networks simulated %d intervals, the sweep workload counts %d", got, want)
	}
}

// TestResultLine pins the keys of the final output line.
func TestResultLine(t *testing.T) {
	r := newResult()
	r.set("ns_per_interval", "ns", 1.5)
	r.check(nil)
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, buf)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has extra keys: %s", buf)
	}
}
