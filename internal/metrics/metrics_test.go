package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidation(t *testing.T) {
	if _, err := NewCollector(nil); err == nil {
		t.Error("empty collector accepted")
	}
	if _, err := NewCollector([]float64{1, -1}); err == nil {
		t.Error("negative requirement accepted")
	}
}

func TestThroughputAndDeficiency(t *testing.T) {
	c, err := NewCollector([]float64{0.9, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalDeficiency() != 0.9+0.5 {
		t.Fatalf("empty collector deficiency %v, want q sum", c.TotalDeficiency())
	}
	// 4 intervals: link 0 delivers 1,1,0,1 (throughput 0.75); link 1 always 1.
	for _, s := range [][]int{{1, 1}, {1, 1}, {0, 1}, {1, 1}} {
		c.ObserveInterval(0, []int{1, 1}, s)
	}
	if got := c.Throughput(0); got != 0.75 {
		t.Fatalf("Throughput(0) = %v, want 0.75", got)
	}
	if got := c.Deficiency(0); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("Deficiency(0) = %v, want 0.15", got)
	}
	if got := c.Deficiency(1); got != 0 {
		t.Fatalf("Deficiency(1) = %v, want 0 (over-served clamps)", got)
	}
	if got := c.TotalDeficiency(); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("TotalDeficiency = %v, want 0.15", got)
	}
	if c.Intervals() != 4 || c.Links() != 2 {
		t.Fatalf("counters wrong: %d intervals, %d links", c.Intervals(), c.Links())
	}
}

func TestDeliveryRatio(t *testing.T) {
	c, _ := NewCollector([]float64{1})
	if got := c.DeliveryRatio(0); got != 1 {
		t.Fatalf("ratio with no arrivals = %v, want 1", got)
	}
	c.ObserveInterval(0, []int{4}, []int{3})
	if got := c.DeliveryRatio(0); got != 0.75 {
		t.Fatalf("ratio = %v, want 0.75", got)
	}
}

func TestSeriesSnapshots(t *testing.T) {
	c, err := NewCollector([]float64{1}, WithSeries(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		c.ObserveInterval(int64(i), []int{1}, []int{1})
	}
	series := c.Series()
	if len(series) != 3 {
		t.Fatalf("got %d snapshots, want 3 (at K=2,4,6)", len(series))
	}
	for i, want := range []int64{2, 4, 6} {
		if series[i].Intervals != want {
			t.Fatalf("snapshot %d at K=%d, want %d", i, series[i].Intervals, want)
		}
		if series[i].Throughput[0] != 1 {
			t.Fatalf("snapshot %d throughput %v, want 1", i, series[i].Throughput[0])
		}
	}
}

func TestSeriesSnapshotsAreIndependentCopies(t *testing.T) {
	c, _ := NewCollector([]float64{1}, WithSeries(1))
	c.ObserveInterval(0, []int{1}, []int{1})
	c.ObserveInterval(1, []int{1}, []int{0})
	series := c.Series()
	if series[0].Throughput[0] == series[1].Throughput[0] {
		t.Fatal("snapshots alias the same storage")
	}
}

func TestConvergenceInterval(t *testing.T) {
	c, _ := NewCollector([]float64{1}, WithSeries(1))
	// Deliveries: 0, 0, then always 1: cumulative throughput climbs toward 1.
	pattern := []int{0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	for i, s := range pattern {
		c.ObserveInterval(int64(i), []int{1}, []int{s})
	}
	// Cumulative throughput at K: (K-2)/K; within 10% of 1.0 from K=20... at
	// K=20: 18/20 = 0.9 exactly on the boundary.
	got := c.ConvergenceInterval(0, 1.0, 0.1)
	if got != 20 {
		t.Fatalf("ConvergenceInterval = %d, want 20", got)
	}
	if c.ConvergenceInterval(0, 1.0, 0.01) != -1 {
		t.Fatal("tight tolerance should not be met")
	}
	if c.ConvergenceInterval(0, 0, 0.1) != -1 {
		t.Fatal("zero target must return -1")
	}
}

func TestConvergenceRequiresStaying(t *testing.T) {
	c, _ := NewCollector([]float64{1}, WithSeries(1))
	// Bounce: reach the band then leave it again.
	for i, s := range []int{1, 1, 0, 0, 0, 0} {
		c.ObserveInterval(int64(i), []int{1}, []int{s})
	}
	if got := c.ConvergenceInterval(0, 1.0, 0.1); got != -1 {
		t.Fatalf("ConvergenceInterval = %d, want -1 after falling out of the band", got)
	}
}

// Property: TotalDeficiency is always in [0, Σq] and equals the sum of
// per-link deficiencies.
func TestDeficiencyBoundsProperty(t *testing.T) {
	prop := func(services []uint8) bool {
		q := []float64{0.9, 1.7}
		c, err := NewCollector(q)
		if err != nil {
			return false
		}
		for _, s := range services {
			c.ObserveInterval(0, []int{1, 2}, []int{int(s % 2), int(s % 3)})
		}
		total := c.TotalDeficiency()
		if total < 0 || total > 0.9+1.7+1e-12 {
			return false
		}
		return math.Abs(total-(c.Deficiency(0)+c.Deficiency(1))) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
