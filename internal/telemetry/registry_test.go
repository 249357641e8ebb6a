package telemetry

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rtmac_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := reg.Counter("rtmac_test_total", ""); again != c {
		t.Error("second lookup returned a different counter")
	}
	g := reg.Gauge("rtmac_test_level", "a gauge")
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Errorf("gauge = %v, want -2.5", got)
	}
}

func TestCounterRejectsNegativeDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	new(Counter).Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rtmac_test_total", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("rtmac_test_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "9lead", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", name)
				}
			}()
			NewRegistry().Counter(name, "")
		}()
	}
}

// TestHistogramBucketing drives the inclusive-upper-bound semantics through
// underflow, exact boundaries, interior values, and overflow.
func TestHistogramBucketing(t *testing.T) {
	bounds := []float64{0, 1, 10}
	cases := []struct {
		name   string
		value  float64
		bucket int // index into counts; 3 = +Inf bucket
	}{
		{"underflow goes to first bucket", -5, 0},
		{"exact first boundary is inclusive", 0, 0},
		{"interior value", 0.5, 1},
		{"exact interior boundary is inclusive", 1, 1},
		{"just above interior boundary", 1.0000001, 2},
		{"exact last boundary is inclusive", 10, 2},
		{"overflow goes to +Inf bucket", 10.5, 3},
		{"large overflow", 1e9, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewRegistry().Histogram("rtmac_test_hist", "", bounds)
			h.Observe(tc.value)
			s := h.Snapshot()
			for i, c := range s.Counts {
				want := uint64(0)
				if i == tc.bucket {
					want = 1
				}
				if c != want {
					t.Errorf("bucket %d count = %d, want %d", i, c, want)
				}
			}
			if s.Total != 1 || s.Sum != tc.value {
				t.Errorf("total/sum = %d/%v, want 1/%v", s.Total, s.Sum, tc.value)
			}
		})
	}
}

// TestHistogramBatchMatchesSingles observes value sequences once one value
// per call and once in batches of random sizes (empty ones included): the
// bucket counts, the total and the bits of the sum must agree, since a batch
// adds its values in the same order.
func TestHistogramBatchMatchesSingles(t *testing.T) {
	bounds := []float64{0, 0.25, 1, 4, 64}
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		values := make([]float64, rng.IntN(300))
		for i := range values {
			switch rng.IntN(4) {
			case 0:
				values[i] = -rng.Float64() * 10 // below the first bound
			case 1:
				values[i] = bounds[rng.IntN(len(bounds))] // on a bound
			case 2:
				values[i] = 64 + rng.Float64()*1e6 // above the last bound
			default:
				values[i] = rng.Float64() * 64
			}
		}
		reg := NewRegistry()
		one := reg.Histogram("rtmac_single", "", bounds)
		for _, v := range values {
			one.Observe(v)
		}
		batched := reg.Histogram("rtmac_batched", "", bounds)
		for rest := values; len(rest) > 0; {
			n := min(rng.IntN(12), len(rest))
			batched.Observe(rest[:n]...)
			rest = rest[n:]
		}
		want, got := one.Snapshot(), batched.Snapshot()
		if !slices.Equal(got.Counts, want.Counts) || got.Total != want.Total ||
			math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
			t.Fatalf("trial %d: batched counts %v total %d sum %v, singles %v %d %v",
				trial, got.Counts, got.Total, got.Sum, want.Counts, want.Total, want.Sum)
		}
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			NewRegistry().Histogram("rtmac_test_hist", "", bounds)
		}()
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rtmac_b_total", "counts b").Add(7)
	reg.Gauge("rtmac_a_level", "").Set(0.25)
	h := reg.Histogram("rtmac_c_seconds", "spread", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE rtmac_a_level gauge\nrtmac_a_level 0.25\n",
		"# HELP rtmac_b_total counts b\n# TYPE rtmac_b_total counter\nrtmac_b_total 7\n",
		"rtmac_c_seconds_bucket{le=\"1\"} 1\n",
		"rtmac_c_seconds_bucket{le=\"2\"} 2\n",
		"rtmac_c_seconds_bucket{le=\"+Inf\"} 3\n",
		"rtmac_c_seconds_sum 101\n",
		"rtmac_c_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Sorted by name: gauge a before counter b before histogram c.
	if strings.Index(out, "rtmac_a_level") > strings.Index(out, "rtmac_b_total") {
		t.Error("exposition not sorted by metric name")
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("rtmac_util", "").Set(math.Inf(1))
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err == nil {
		t.Error("JSON encoding of +Inf should fail loudly, not silently") // json cannot carry Inf
	}
	reg2 := NewRegistry()
	reg2.Counter("rtmac_x_total", "").Add(3)
	sb.Reset()
	if err := reg2.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\"rtmac_x_total\"") {
		t.Errorf("JSON snapshot missing metric: %s", sb.String())
	}
}

// TestRegistryConcurrency exercises the registry under -race: concurrent
// registration of the same names plus concurrent updates, while one
// goroutine observes batches and another scrapes with Snapshot and
// WritePrometheus. A scrape must never see half a batch.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	batch := reg.Histogram("rtmac_conc_batch", "", []float64{0.5, 2})
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		ones := []float64{1, 1, 1, 1, 1, 1, 1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch.Observe(ones[:i%len(ones)+1]...)
		}
	}()
	scrapeErr := make(chan error, 1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				scrapeErr <- nil
				return
			default:
			}
			for _, m := range reg.Snapshot() {
				var n uint64
				for _, c := range m.Counts {
					n += c
				}
				// Every batched value is 1, so a whole batch keeps the
				// sum equal to the total.
				if n != m.Total || m.Name == "rtmac_conc_batch" && m.Sum != float64(m.Total) {
					scrapeErr <- fmt.Errorf("torn %s snapshot: counts %v total %d sum %v",
						m.Name, m.Counts, m.Total, m.Sum)
					return
				}
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				scrapeErr <- err
				return
			}
			if _, err := ValidatePrometheus(strings.NewReader(sb.String())); err != nil {
				scrapeErr <- err
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("rtmac_conc_total", "")
			g := reg.Gauge("rtmac_conc_level", "")
			h := reg.Histogram("rtmac_conc_hist", "", []float64{10, 100})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if err := <-scrapeErr; err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("rtmac_conc_total", "").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Histogram("rtmac_conc_hist", "", []float64{10, 100}).Snapshot().Total; got != workers*perWorker {
		t.Errorf("histogram total = %d, want %d", got, workers*perWorker)
	}
}

// TestWritePrometheusConcurrentScrape scrapes the registry while worker
// goroutines hammer existing metrics and register brand-new ones. Every
// scrape must be a valid exposition payload, and once the writers quiesce,
// two scrapes must be byte-identical.
func TestWritePrometheusConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("scrape_seed_total", "").Inc()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("scrape_tx_total", "")
			g := reg.Gauge("scrape_level", "")
			h := reg.Histogram("scrape_delay", "", []float64{10, 100, 1000})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 2000))
				// Registration mid-scrape must not tear the exposition.
				reg.Counter(fmt.Sprintf("scrape_dyn_%d_%d_total", w, i%8), "").Inc()
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if _, err := ValidatePrometheus(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("scrape %d invalid: %v\npayload:\n%s", i, err, sb.String())
		}
	}
	close(stop)
	wg.Wait()
	var a, b strings.Builder
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("quiesced scrapes differ")
	}
}
