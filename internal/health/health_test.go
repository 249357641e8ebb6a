package health

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"rtmac/internal/telemetry"
)

func TestCollectorSamplesRealRuntime(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCollector(CollectorConfig{Period: 20 * time.Millisecond, Registry: reg})
	c.Start()
	// Generate some allocation/GC activity for the collector to observe.
	for i := 0; i < 3; i++ {
		sink := make([]byte, 1<<20)
		_ = sink
		runtime.GC()
	}
	time.Sleep(60 * time.Millisecond)
	c.Stop()

	st := c.Status()
	if st.Samples < 2 {
		t.Fatalf("expected at least 2 samples (immediate + final), got %d", st.Samples)
	}
	if st.Goroutines <= 0 {
		t.Errorf("goroutine count not sampled: %d", st.Goroutines)
	}
	if st.HeapLiveBytes == 0 {
		t.Errorf("heap live not sampled")
	}
	if st.GCCycles == 0 {
		t.Errorf("expected GC cycles after runtime.GC calls")
	}
	if len(st.HeapSeries) == 0 {
		t.Errorf("heap series empty")
	}

	sum := c.Summary()
	if sum.Samples != st.Samples {
		t.Errorf("summary samples %d != status samples %d", sum.Samples, st.Samples)
	}
	// The peak tracks the heap-objects metric that HeapUsedBytes and
	// HeapSeries sample; HeapLiveBytes is the GC's live-heap estimate, a
	// different metric that may sit above it.
	if sum.HeapLivePeakBytes < st.HeapUsedBytes {
		t.Errorf("peak %d below last sample %d", sum.HeapLivePeakBytes, st.HeapUsedBytes)
	}
	for i, v := range st.HeapSeries {
		if float64(sum.HeapLivePeakBytes) < v {
			t.Errorf("peak %d below heap series sample %d (%.0f)", sum.HeapLivePeakBytes, i, v)
		}
	}
	if sum.GCPauses == 0 {
		t.Errorf("expected GC pauses recorded after forced GCs")
	}

	// The registry must carry the published gauges.
	names := reg.Names()
	want := []string{"rtmac_health_samples_total", "rtmac_health_heap_live_bytes", "rtmac_health_goroutines"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %s", w)
		}
	}
}

func TestCollectorStopIdempotent(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	c.Stop() // Stop before Start must be a no-op
	c.Start()
	c.Stop()
	c.Stop()  // must not panic or deadlock
	c.Start() // single-use: restart is a no-op, not a crash
	c.Stop()
}

func TestHistStats(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{0, 98, 1, 1},
		Buckets: []float64{math.Inf(-1), 1e-6, 1e-5, 1e-4, math.Inf(1)},
	}
	s := histStats(h)
	if s.count != 100 {
		t.Fatalf("count = %d, want 100", s.count)
	}
	// Worst observation lands in the (1e-4, +Inf) bucket: finite edge 1e-4.
	if s.maxSec != 1e-4 {
		t.Errorf("max = %g, want 1e-4", s.maxSec)
	}
	// p99 threshold = 99 observations, reached inside the third bucket.
	if s.p99Sec != 1e-4 {
		t.Errorf("p99 = %g, want 1e-4", s.p99Sec)
	}
	if s.totalSec <= 0 {
		t.Errorf("total = %g, want > 0", s.totalSec)
	}
	if got := histStats(nil); got.count != 0 {
		t.Errorf("nil histogram should be empty, got %+v", got)
	}
}

func TestBuildDocAndValidate(t *testing.T) {
	c := NewCollector(CollectorConfig{Period: 10 * time.Millisecond})
	c.Start()
	time.Sleep(15 * time.Millisecond)
	c.Stop()
	w := NewWatchdog(WatchdogConfig{Budget: time.Hour})

	doc := BuildDoc(c, w)
	if !doc.Enabled {
		t.Fatal("doc with collector should be enabled")
	}
	if doc.Runtime.GoVersion == "" {
		t.Fatal("runtime block missing go version")
	}
	if doc.Watchdog == nil || doc.Watchdog.BudgetNS != int64(time.Hour) {
		t.Fatalf("watchdog block wrong: %+v", doc.Watchdog)
	}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	parsed, err := ValidateDoc(&buf)
	if err != nil {
		t.Fatalf("ValidateDoc rejected a good doc: %v", err)
	}
	if parsed.Collector.Samples != doc.Collector.Samples {
		t.Errorf("round trip lost samples: %d != %d", parsed.Collector.Samples, doc.Collector.Samples)
	}

	// Disabled doc (no components) must still validate.
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(BuildDoc(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateDoc(&buf); err != nil {
		t.Errorf("disabled doc should validate: %v", err)
	}
}

func TestValidateDocRejectsBroken(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"no runtime":      `{"enabled":false}`,
		"bad gomaxprocs":  `{"enabled":false,"runtime":{"go_version":"go1.24","gomaxprocs":0}}`,
		"enabled no coll": `{"enabled":true,"runtime":{"go_version":"go1.24","gomaxprocs":4}}`,
		"trailing data":   `{"enabled":false,"runtime":{"go_version":"go1.24","gomaxprocs":4}} {"bogus": 1}`,
		"trailing text":   `{"enabled":false,"runtime":{"go_version":"go1.24","gomaxprocs":4}}` + "\n trailing",
	}
	for name, doc := range cases {
		if _, err := ValidateDoc(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ValidateDoc accepted %q", name, doc)
		}
	}
}
