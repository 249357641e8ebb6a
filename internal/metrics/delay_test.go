package metrics

import (
	"testing"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
)

func TestDelayStatsValidation(t *testing.T) {
	if _, err := NewDelayStats(0, 10); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewDelayStats(100, 0); err == nil {
		t.Error("zero resolution accepted")
	}
}

func TestDelayObservation(t *testing.T) {
	d, err := NewDelayStats(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Deliveries ending at 10, 50, 100 within interval 0; at 110 within
	// interval 1 (delay 10).
	for _, end := range []sim.Time{10, 50, 100, 110} {
		d.observe(end)
	}
	if d.Count() != 4 {
		t.Fatalf("Count = %d", d.Count())
	}
	if got := d.Mean(); got != (10+50+100+10)/4 {
		t.Fatalf("Mean = %v", got)
	}
	if d.Max() != 100 {
		t.Fatalf("Max = %v", d.Max())
	}
	h := d.Histogram()
	if h[0] != 2 || h[4] != 1 || h[9] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestDelayQuantiles(t *testing.T) {
	d, _ := NewDelayStats(100, 10)
	// 9 fast deliveries (delay 10) and one at the deadline.
	for i := 0; i < 9; i++ {
		d.observe(10)
	}
	d.observe(100)
	q50, err := d.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q50 != 10 {
		t.Fatalf("p50 = %v, want 10", q50)
	}
	q99, err := d.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if q99 != 100 {
		t.Fatalf("p99 = %v, want 100", q99)
	}
	if _, err := d.Quantile(0); err == nil {
		t.Error("quantile 0 accepted")
	}
	if share := d.DeadlineShare(0.5); share != 0.9 {
		t.Fatalf("DeadlineShare(0.5) = %v, want 0.9", share)
	}
}

func TestDelayQuantileEmpty(t *testing.T) {
	d, _ := NewDelayStats(100, 10)
	if _, err := d.Quantile(0.5); err == nil {
		t.Error("quantile on empty stats accepted")
	}
	if d.DeadlineShare(1) != 0 {
		t.Error("empty DeadlineShare not zero")
	}
}

func TestDelayAttachToMedium(t *testing.T) {
	eng := sim.NewEngine(1)
	med, err := medium.New(eng, []float64{1, 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDelayStats(1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The medium's trace hook is where a network's Tx records come from.
	med.SetTrace(func(tx medium.Transmission, o medium.Outcome) { d.Tx(0, tx, o) })
	// A delivered data packet counts; an empty frame does not; a lost one
	// does not.
	med.Start(0, 100, false, nil) // delivered (p=1), delay 100
	eng.ScheduleAt(200, func() { med.Start(0, 70, true, nil) })
	eng.ScheduleAt(300, func() { med.Start(1, 100, false, nil) }) // lost (p≈0)
	eng.Run()
	if d.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (data deliveries only)", d.Count())
	}
	if d.Max() != 100 {
		t.Fatalf("Max = %v, want 100", d.Max())
	}
}
