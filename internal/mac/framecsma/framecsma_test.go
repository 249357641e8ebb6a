package framecsma

import (
	"testing"

	"rtmac/internal/arrival"
	"rtmac/internal/debt"
	"rtmac/internal/mac"
	"rtmac/internal/mac/ldf"
	"rtmac/internal/metrics"
	"rtmac/internal/phy"
)

func fastProfile() phy.Profile {
	return phy.Profile{Name: "test", Slot: 1, DataAirtime: 10, EmptyAirtime: 2, Interval: 200}
}

func TestValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ControlSlot: -1}); err == nil {
		t.Fatal("negative control slot accepted")
	}
	// Links are ordered by the paper's influence function.
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.f.Name(), debt.PaperLog().Name(); got != want {
		t.Fatalf("influence function %q, want %q", got, want)
	}
}

func run(t *testing.T, seed uint64, prot mac.Protocol, n int, p float64,
	proc arrival.Process, q float64, intervals int, profile phy.Profile) (*mac.Network, *metrics.Collector) {
	t.Helper()
	av, err := arrival.Uniform(n, proc)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, n)
	req := make([]float64, n)
	for i := range probs {
		probs[i] = p
		req[i] = q
	}
	col, err := metrics.NewCollector(req)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := mac.NewNetwork(mac.NetworkConfig{
		Seed:        seed,
		Profile:     profile,
		SuccessProb: probs,
		Arrivals:    av,
		Required:    req,
		Protocol:    prot,
		Observers:   []mac.Observer{col},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(intervals); err != nil {
		t.Fatal(err)
	}
	return nw, col
}

func TestReliableChannelNearOptimal(t *testing.T) {
	// With p = 1 the expected-retry allocation is exact: frame-based CSMA
	// should fulfill what LDF fulfills, minus only the control overhead
	// (here 2 links × 1 µs = 2 µs of a 200 µs frame).
	cfg := DefaultConfig()
	cfg.ControlSlot = 1
	prot, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, col := run(t, 1, prot, 2, 1, arrival.Deterministic{N: 4}, 4, 800, fastProfile())
	if d := col.TotalDeficiency(); d > 0.01 {
		t.Fatalf("reliable-channel deficiency %v, want ≈ 0", d)
	}
}

func TestUnreliableChannelSubOptimal(t *testing.T) {
	// The paper's point about [23]: on unreliable channels the open-loop
	// schedule wastes luck (early finishers idle their slots) and cannot
	// rescue the unlucky, so at a load LDF fulfills, frame-based CSMA
	// leaves a clearly larger deficiency.
	const (
		n         = 4
		p         = 0.6
		q         = 1.9 // 95% of arrivals; LDF workload ≈ 12.7 of 20 slots
		intervals = 2000
	)
	proc := arrival.Deterministic{N: 2}
	prot, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, frameCol := run(t, 2, prot, n, p, proc, q, intervals, fastProfile())
	_, ldfCol := run(t, 2, ldf.NewLDF(), n, p, proc, q, intervals, fastProfile())
	frame, ldfD := frameCol.TotalDeficiency(), ldfCol.TotalDeficiency()
	if ldfD > 0.02 {
		t.Fatalf("LDF deficiency %v on this load, expected ≈ 0 (test assumption)", ldfD)
	}
	if frame < ldfD+0.05 {
		t.Fatalf("frame-based CSMA deficiency %v not clearly above LDF's %v", frame, ldfD)
	}
}

func TestControlOverheadCostsCapacity(t *testing.T) {
	// Doubling the control phase must not increase throughput; at a
	// saturating load it strictly reduces it.
	proc := arrival.Deterministic{N: 10}
	cheap := DefaultConfig()
	cheap.ControlSlot = 1
	costly := DefaultConfig()
	costly.ControlSlot = 40 // 2 links × 40 µs = 80 µs of a 200 µs frame
	cheapProt, err := New(cheap)
	if err != nil {
		t.Fatal(err)
	}
	costlyProt, err := New(costly)
	if err != nil {
		t.Fatal(err)
	}
	_, cheapCol := run(t, 3, cheapProt, 2, 1, proc, 10, 300, fastProfile())
	_, costlyCol := run(t, 3, costlyProt, 2, 1, proc, 10, 300, fastProfile())
	cheapTP := cheapCol.Throughput(0) + cheapCol.Throughput(1)
	costlyTP := costlyCol.Throughput(0) + costlyCol.Throughput(1)
	if costlyTP >= cheapTP {
		t.Fatalf("80 µs control phase did not cost throughput: %v vs %v", costlyTP, cheapTP)
	}
}

func TestNoEventLeaksUnderTinyIntervals(t *testing.T) {
	// An interval barely larger than the control phase: the protocol must
	// neither schedule past the deadline nor leak timers (the network
	// errors on leaks).
	profile := phy.Profile{Name: "tiny", Slot: 1, DataAirtime: 10, EmptyAirtime: 2, Interval: 25}
	cfg := DefaultConfig()
	cfg.ControlSlot = 10 // 2 links → 20 µs control in a 25 µs interval
	prot, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(t, 4, prot, 2, 0.5, arrival.Deterministic{N: 1}, 0.5, 500, profile)
}
