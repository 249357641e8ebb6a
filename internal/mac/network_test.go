package mac

import (
	"fmt"
	"strings"
	"testing"

	"rtmac/internal/arrival"
	"rtmac/internal/medium"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
)

// greedy is a minimal protocol: every link transmits in index order,
// back-to-back, retrying losses, until the interval ends.
type greedy struct{}

func (greedy) Name() string { return "greedy" }

func (g greedy) BeginInterval(ctx *Context) { g.serve(ctx) }

func (g greedy) serve(ctx *Context) {
	for link := 0; link < ctx.Links(); link++ {
		if ctx.Pending(link) > 0 {
			ctx.TransmitData(link, func(bool) { g.serve(ctx) })
			return
		}
	}
}

func (greedy) EndInterval(*Context) {}

// leaky schedules an event past the interval end to exercise the leak check.
type leaky struct{ greedy }

func (leaky) BeginInterval(ctx *Context) {
	ctx.Eng.ScheduleAt(ctx.End+1000, func() {})
}

func testProfile() phy.Profile {
	return phy.Profile{Name: "test", Slot: 1, DataAirtime: 10, EmptyAirtime: 2, Interval: 100}
}

type countingObserver struct {
	calls  int
	lastK  int64
	served [][]int
}

func (o *countingObserver) ObserveInterval(k int64, arrivals, served []int) {
	o.calls++
	o.lastK = k
	cp := make([]int, len(served))
	copy(cp, served)
	o.served = append(o.served, cp)
}

func newTestNetwork(t *testing.T, cfg NetworkConfig) *Network {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func baseConfig(t *testing.T) NetworkConfig {
	t.Helper()
	av, err := arrival.Uniform(2, arrival.Deterministic{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NetworkConfig{
		Seed:        1,
		Profile:     testProfile(),
		SuccessProb: []float64{1, 1},
		Arrivals:    av,
		Required:    []float64{2, 2},
		Protocol:    greedy{},
	}
}

func TestNetworkValidation(t *testing.T) {
	good := baseConfig(t)
	tests := []struct {
		name   string
		mutate func(*NetworkConfig)
	}{
		{"nil protocol", func(c *NetworkConfig) { c.Protocol = nil }},
		{"nil arrivals", func(c *NetworkConfig) { c.Arrivals = nil }},
		{"bad profile", func(c *NetworkConfig) { c.Profile.Slot = 0 }},
		{"empty success", func(c *NetworkConfig) { c.SuccessProb = nil }},
		{"arrival link mismatch", func(c *NetworkConfig) { c.SuccessProb = []float64{1} }},
		{"requirement mismatch", func(c *NetworkConfig) { c.Required = []float64{1} }},
		{"bad probability", func(c *NetworkConfig) { c.SuccessProb = []float64{1, 0} }},
		{"negative requirement", func(c *NetworkConfig) { c.Required = []float64{1, -1} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mutate(&cfg)
			if _, err := NewNetwork(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestNetworkServesDeterministicLoad(t *testing.T) {
	obs := &countingObserver{}
	cfg := baseConfig(t)
	cfg.Observers = []Observer{obs}
	nw := newTestNetwork(t, cfg)
	if err := nw.Run(10); err != nil {
		t.Fatal(err)
	}
	// 2 links × 2 packets × 10 µs = 40 µs per 100 µs interval: everything
	// fits, p = 1, so every interval serves [2, 2].
	if obs.calls != 10 || obs.lastK != 9 {
		t.Fatalf("observer calls = %d lastK = %d", obs.calls, obs.lastK)
	}
	for k, served := range obs.served {
		if served[0] != 2 || served[1] != 2 {
			t.Fatalf("interval %d served %v, want [2 2]", k, served)
		}
	}
	// Debts: q = 2, served 2 ⇒ debt stays 0.
	if nw.Ledger().Debt(0) != 0 || nw.Ledger().Debt(1) != 0 {
		t.Fatalf("debts = %v %v, want 0", nw.Ledger().Debt(0), nw.Ledger().Debt(1))
	}
	if nw.Intervals() != 10 {
		t.Fatalf("Intervals = %d, want 10", nw.Intervals())
	}
}

func TestNetworkRunIsResumable(t *testing.T) {
	cfg := baseConfig(t)
	nw := newTestNetwork(t, cfg)
	if err := nw.Run(3); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(4); err != nil {
		t.Fatal(err)
	}
	if nw.Intervals() != 7 {
		t.Fatalf("Intervals = %d, want 7", nw.Intervals())
	}
	if got, want := nw.Engine().Now(), sim.Time(700); got != want {
		t.Fatalf("clock at %v, want %v", got, want)
	}
}

func TestNetworkDetectsLeakedEvents(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Protocol = leaky{}
	nw := newTestNetwork(t, cfg)
	if err := nw.Run(1); err == nil {
		t.Fatal("leaked event not detected")
	}
}

func TestNetworkRejectsNegativeIntervals(t *testing.T) {
	nw := newTestNetwork(t, baseConfig(t))
	if err := nw.Run(-1); err == nil {
		t.Fatal("negative interval count accepted")
	}
}

func TestNetworkDeadlineEnforced(t *testing.T) {
	// 2 links × 6 packets × 10 µs = 120 µs of work in a 100 µs interval:
	// exactly 10 packets fit; the rest must be flushed, never carried over.
	av, err := arrival.Uniform(2, arrival.Deterministic{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	cfg := baseConfig(t)
	cfg.Arrivals = av
	cfg.Observers = []Observer{obs}
	nw := newTestNetwork(t, cfg)
	if err := nw.Run(5); err != nil {
		t.Fatal(err)
	}
	for k, served := range obs.served {
		total := served[0] + served[1]
		if total != 10 {
			t.Fatalf("interval %d delivered %d packets, want exactly 10 (deadline)", k, total)
		}
	}
}

func TestNetworkUnreliableChannelRetries(t *testing.T) {
	// One link, p = 0.5, one packet per interval, interval fits 10 attempts:
	// delivery probability per interval is 1 − 2⁻¹⁰; over 200 intervals the
	// deficiency must be tiny, and some losses must actually occur.
	av, err := arrival.Uniform(1, arrival.Deterministic{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := NetworkConfig{
		Seed:        7,
		Profile:     testProfile(),
		SuccessProb: []float64{0.5},
		Arrivals:    av,
		Required:    []float64{1},
		Protocol:    greedy{},
	}
	nw := newTestNetwork(t, cfg)
	if err := nw.Run(200); err != nil {
		t.Fatal(err)
	}
	st := nw.Medium().Stats()
	if st.Losses == 0 {
		t.Fatal("p = 0.5 produced no losses")
	}
	if st.Deliveries < 195 {
		t.Fatalf("only %d deliveries in 200 intervals", st.Deliveries)
	}
	if st.Transmissions <= st.Deliveries {
		t.Fatal("retries did not happen")
	}
}

func TestContextEmptyFrameBookkeeping(t *testing.T) {
	cfg := baseConfig(t)
	nw := newTestNetwork(t, cfg)
	ctx := nw.ctx
	ctx.beginInterval(0, 0, 100, []int{0, 3})
	if ctx.HasTraffic(0) {
		t.Fatal("link 0 has traffic before empty frame")
	}
	ctx.QueueEmptyFrame(0)
	if !ctx.HasEmptyFrame(0) || !ctx.HasTraffic(0) {
		t.Fatal("empty frame not queued")
	}
	if !ctx.HasTraffic(1) {
		t.Fatal("link 1 with pending packets reports no traffic")
	}
	if ctx.Arrivals(1) != 3 || ctx.Pending(1) != 3 || ctx.Served(1) != 0 {
		t.Fatal("arrival bookkeeping wrong")
	}
	// Transmitting the empty frame consumes it.
	if !ctx.TransmitEmpty(0, nil) {
		t.Fatal("TransmitEmpty declined")
	}
	if ctx.HasEmptyFrame(0) {
		t.Fatal("empty frame not consumed")
	}
	if ctx.TransmitEmpty(0, nil) {
		t.Fatal("second TransmitEmpty sent a phantom frame")
	}
}

func TestContextRefusesLateTransmissions(t *testing.T) {
	cfg := baseConfig(t)
	nw := newTestNetwork(t, cfg)
	ctx := nw.ctx
	ctx.beginInterval(0, 0, 100, []int{1, 0})
	nw.Engine().ScheduleAt(95, func() {
		// 5 µs remain; a 10 µs data exchange must be refused (Remark 4), and
		// so must a 2 µs... no: the empty frame fits.
		if ctx.TransmitData(0, nil) {
			t.Error("data exchange started past the point of fitting")
		}
		if ctx.FitsData() {
			t.Error("FitsData with 5 µs remaining")
		}
		if !ctx.FitsEmpty() {
			t.Error("2 µs empty frame should fit in 5 µs")
		}
	})
	nw.Engine().RunUntil(100)
}

func TestNetworkAccessorsAndChannelOptions(t *testing.T) {
	cfg := baseConfig(t)
	nw := newTestNetwork(t, cfg)
	if nw.Links() != 2 {
		t.Fatalf("Links = %d", nw.Links())
	}
	if nw.Contention() == nil {
		t.Fatal("nil contention")
	}
	fakeFactory := func(*sim.Engine, int) (medium.Model, error) { return fakeModel{}, nil }
	// SuccessProb and ChannelFactory are mutually exclusive.
	both := baseConfig(t)
	both.ChannelFactory = fakeFactory
	if _, err := NewNetwork(both); err == nil {
		t.Fatal("SuccessProb+ChannelFactory accepted")
	}
	// Factory-only path works and uses the model's mean.
	chOnly := baseConfig(t)
	chOnly.SuccessProb = nil
	chOnly.ChannelFactory = fakeFactory
	nw2 := newTestNetwork(t, chOnly)
	if err := nw2.Run(3); err != nil {
		t.Fatal(err)
	}
	if got := nw2.Medium().SuccessProb(0); got != 0.8 {
		t.Fatalf("model mean not used: %v", got)
	}
	// ChannelFactory error propagates.
	facErr := baseConfig(t)
	facErr.SuccessProb = nil
	facErr.ChannelFactory = func(*sim.Engine, int) (medium.Model, error) {
		return nil, fmt.Errorf("boom")
	}
	if _, err := NewNetwork(facErr); err == nil {
		t.Fatal("factory error swallowed")
	}
	// ChannelFactory success path.
	fac := baseConfig(t)
	fac.SuccessProb = nil
	fac.ChannelFactory = fakeFactory
	nw3 := newTestNetwork(t, fac)
	if err := nw3.Run(2); err != nil {
		t.Fatal(err)
	}
}

type fakeModel struct{}

func (fakeModel) Instantaneous(int, sim.Time) float64 { return 0.8 }
func (fakeModel) Mean(int) float64                    { return 0.8 }

func TestContextServedVectorAndForceEmpty(t *testing.T) {
	cfg := baseConfig(t)
	nw := newTestNetwork(t, cfg)
	ctx := nw.ctx
	ctx.beginInterval(0, 0, 100, []int{2, 0})
	if ctx.Served(0) != 0 || ctx.Served(1) != 0 {
		t.Fatalf("fresh served vector [%d %d]", ctx.Served(0), ctx.Served(1))
	}
	// ForceEmptyFrame queues and sends in one call.
	if !ctx.ForceEmptyFrame(1, nil) {
		t.Fatal("ForceEmptyFrame declined with plenty of time")
	}
	nw.Engine().RunUntil(50)
	// Near the deadline even the empty frame no longer fits.
	nw.Engine().RunUntil(99)
	if ctx.ForceEmptyFrame(0, nil) {
		t.Fatal("ForceEmptyFrame started with 1 µs remaining")
	}
}

func TestContentionRemoveEdgeCases(t *testing.T) {
	cfg := baseConfig(t)
	nw := newTestNetwork(t, cfg)
	cont := nw.Contention()
	cont.Remove(-1) // out of range: no-op
	cont.Remove(0)  // not contending: no-op
	cont.Add(0, 3, Contender{Fire: func() bool { return false }})
	cont.Add(1, 5, Contender{Fire: func() bool { return false }})
	cont.Remove(0)
	if cont.Active() != 1 {
		t.Fatalf("Active = %d after removal", cont.Active())
	}
	cont.Remove(1)
	if cont.Active() != 0 {
		t.Fatalf("Active = %d after removing all", cont.Active())
	}
	if nw.Engine().Pending() != 0 {
		t.Fatal("boundary timer not disarmed after last removal")
	}
}

func TestSetIntervalCheckAbortsRun(t *testing.T) {
	nw := newTestNetwork(t, baseConfig(t))
	calls := 0
	nw.SetIntervalCheck(func() error {
		calls++
		if calls == 3 {
			return fmt.Errorf("synthetic failure")
		}
		return nil
	})
	err := nw.Run(10)
	if err == nil {
		t.Fatal("Run ignored the interval check")
	}
	if want := "interval 2"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
	if nw.Intervals() != 3 {
		t.Errorf("run continued to interval %d after the failing check", nw.Intervals())
	}
}

// clashing transmits on every link at once — a deliberately broken
// "collision-free" protocol for exercising the strict monitor path (see
// TestStrictMonitorAbortsViolatingProtocol in probe_test.go).
type clashing struct{}

func (clashing) Name() string { return "clashing" }
func (clashing) BeginInterval(ctx *Context) {
	for link := 0; link < ctx.Links(); link++ {
		ctx.TransmitData(link, func(bool) {})
	}
}
func (clashing) EndInterval(*Context) {}
