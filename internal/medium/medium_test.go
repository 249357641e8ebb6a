package medium

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

func newTestMedium(t *testing.T, seed uint64, p ...float64) (*sim.Engine, *Medium) {
	t.Helper()
	if len(p) == 0 {
		p = []float64{1, 1, 1, 1}
	}
	eng := sim.NewEngine(seed)
	m, err := New(eng, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, m
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	tests := []struct {
		name string
		eng  *sim.Engine
		p    []float64
	}{
		{"nil engine", nil, []float64{0.5}},
		{"no links", eng, nil},
		{"zero probability", eng, []float64{0.5, 0}},
		{"negative probability", eng, []float64{-0.1}},
		{"probability above one", eng, []float64{1.1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.eng, tc.p); err == nil {
				t.Fatal("New accepted invalid input")
			}
		})
	}
}

func TestReliableTransmissionDelivers(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	var got Outcome = -1
	m.Start(0, 100, false, func(o Outcome) { got = o })
	if !m.Busy() {
		t.Fatal("channel not busy during transmission")
	}
	eng.Run()
	if got != Delivered {
		t.Fatalf("outcome = %v, want delivered", got)
	}
	if m.Busy() {
		t.Fatal("channel busy after transmission ended")
	}
	st := m.Stats()
	if st.Deliveries != 1 || st.Transmissions != 1 || st.BusyTime != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverlapCollidesAll(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	outcomes := map[int]Outcome{}
	m.Start(0, 100, false, func(o Outcome) { outcomes[0] = o })
	eng.After(50, func() {
		m.Start(1, 100, false, func(o Outcome) { outcomes[1] = o })
	})
	eng.Run()
	if outcomes[0] != Collided || outcomes[1] != Collided {
		t.Fatalf("outcomes = %v, want both collided", outcomes)
	}
	if m.Stats().Collisions != 2 {
		t.Fatalf("collisions = %d, want 2", m.Stats().Collisions)
	}
}

func TestSimultaneousStartsCollide(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	outcomes := map[int]Outcome{}
	eng.ScheduleAt(10, func() {
		m.Start(0, 100, false, func(o Outcome) { outcomes[0] = o })
		m.Start(1, 100, false, func(o Outcome) { outcomes[1] = o })
		m.Start(2, 100, false, func(o Outcome) { outcomes[2] = o })
	})
	eng.Run()
	for link, o := range outcomes {
		if o != Collided {
			t.Fatalf("link %d outcome = %v, want collided", link, o)
		}
	}
	if len(outcomes) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(outcomes))
	}
}

func TestLateJoinerCollidesEarlierLongTransmission(t *testing.T) {
	// Three-way chain: tx A [0,100), tx B [90,190), A and B collide; a third
	// tx C [150, 250) overlaps B only — all three must fail, and the overlap
	// marking must propagate at start time, not resolution time.
	eng, m := newTestMedium(t, 1)
	outcomes := map[int]Outcome{}
	m.Start(0, 100, false, func(o Outcome) { outcomes[0] = o })
	eng.ScheduleAt(90, func() {
		m.Start(1, 100, false, func(o Outcome) { outcomes[1] = o })
	})
	eng.ScheduleAt(150, func() {
		m.Start(2, 100, false, func(o Outcome) { outcomes[2] = o })
	})
	eng.Run()
	for link := 0; link <= 2; link++ {
		if outcomes[link] != Collided {
			t.Fatalf("link %d outcome = %v, want collided", link, outcomes[link])
		}
	}
}

func TestBackToBackTransmissionsDoNotCollide(t *testing.T) {
	// A transmitter chaining a second transmission inside onDone must hold
	// the channel without an idle gap and without self-collision.
	eng, m := newTestMedium(t, 1)
	rec := &linkSetRecorder{}
	m.SubscribeLinks(rec)
	var outcomes []Outcome
	m.Start(0, 100, false, func(o Outcome) {
		outcomes = append(outcomes, o)
		m.Start(0, 100, false, func(o Outcome) { outcomes = append(outcomes, o) })
	})
	eng.Run()
	if len(outcomes) != 2 || outcomes[0] != Delivered || outcomes[1] != Delivered {
		t.Fatalf("outcomes = %v, want two deliveries", outcomes)
	}
	if want := []string{"busy@0[0 1 2 3]", "idle@200[0 1 2 3]"}; !slices.Equal(rec.calls, want) {
		t.Fatalf("transitions %v, want exactly one each: %v", rec.calls, want)
	}
	if m.Stats().BusyTime != 200 {
		t.Fatalf("BusyTime = %v, want 200", m.Stats().BusyTime)
	}
}

func TestEmptyFrameAlwaysSucceedsWithoutCollision(t *testing.T) {
	eng, m := newTestMedium(t, 1, 0.0001, 0.0001)
	var got Outcome = -1
	m.Start(0, 70, true, func(o Outcome) { got = o })
	eng.Run()
	if got != Delivered {
		t.Fatalf("uncollided empty frame outcome = %v, want delivered", got)
	}
	st := m.Stats()
	if st.EmptyFrames != 1 {
		t.Fatalf("EmptyFrames = %d, want 1", st.EmptyFrames)
	}
	if st.Deliveries != 0 {
		t.Fatalf("empty frames must not count as data deliveries, got %d", st.Deliveries)
	}
}

func TestEmptyFrameCanCollide(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	outcomes := map[int]Outcome{}
	m.Start(0, 70, true, func(o Outcome) { outcomes[0] = o })
	m.Start(1, 70, true, func(o Outcome) { outcomes[1] = o })
	eng.Run()
	if outcomes[0] != Collided || outcomes[1] != Collided {
		t.Fatalf("outcomes = %v, want both collided", outcomes)
	}
}

func TestUnreliableChannelMatchesSuccessProbability(t *testing.T) {
	const p = 0.7
	const trials = 20000
	eng, m := newTestMedium(t, 99, p)
	delivered := 0
	var next func()
	i := 0
	next = func() {
		if i >= trials {
			return
		}
		i++
		m.Start(0, 10, false, func(o Outcome) {
			if o == Delivered {
				delivered++
			}
			next()
		})
	}
	next()
	eng.Run()
	got := float64(delivered) / trials
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("empirical delivery rate %v, want ~%v", got, p)
	}
}

func TestDoubleTransmitSameLinkPanics(t *testing.T) {
	_, m := newTestMedium(t, 1)
	m.Start(0, 100, false, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start on the same link did not panic")
		}
	}()
	m.Start(0, 100, false, nil)
}

func TestStartValidationPanics(t *testing.T) {
	_, m := newTestMedium(t, 1)
	for name, fn := range map[string]func(){
		"negative link":  func() { m.Start(-1, 10, false, nil) },
		"link too large": func() { m.Start(4, 10, false, nil) },
		"zero duration":  func() { m.Start(0, 0, false, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

// On the complete graph every transmission moves all links together.
func TestListenerSeesTransitions(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	rec := &linkSetRecorder{}
	m.SubscribeLinks(rec)
	eng.ScheduleAt(10, func() { m.Start(0, 100, false, nil) })
	eng.ScheduleAt(300, func() { m.Start(1, 50, false, nil) })
	eng.Run()
	want := []string{"busy@10[0 1 2 3]", "idle@110[0 1 2 3]", "busy@300[0 1 2 3]", "idle@350[0 1 2 3]"}
	if !slices.Equal(rec.calls, want) {
		t.Fatalf("transitions %v, want %v", rec.calls, want)
	}
}

func TestListenerNotNotifiedDuringOverlap(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	rec := &linkSetRecorder{}
	m.SubscribeLinks(rec)
	m.Start(0, 100, false, nil)
	eng.ScheduleAt(50, func() { m.Start(1, 100, false, nil) })
	eng.Run()
	if want := []string{"busy@0[0 1 2 3]", "idle@150[0 1 2 3]"}; !slices.Equal(rec.calls, want) {
		t.Fatalf("transitions %v, want %v", rec.calls, want)
	}
	if m.Stats().BusyTime != 150 {
		t.Fatalf("BusyTime = %v, want union 150", m.Stats().BusyTime)
	}
}

// Property: with any set of non-overlapping transmissions, none collide; the
// medium must never report success for overlapping ones.
func TestOverlapDetectionProperty(t *testing.T) {
	prop := func(gaps []uint8, overlapAt uint8) bool {
		eng, m := newTestMedium(t, 5, 1, 1)
		collisions := 0
		at := sim.Time(0)
		for _, g := range gaps {
			start := at
			duration := sim.Time(g%50) + 20 // duration 20..69
			gap := sim.Time(g%7) + 1        // gap 1..7 after the transmission
			eng.ScheduleAt(start, func() {
				m.Start(0, duration, false, func(o Outcome) {
					if o == Collided {
						collisions++
					}
				})
			})
			at += duration + gap
		}
		eng.Run()
		return collisions == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOutcomeString(t *testing.T) {
	tests := []struct {
		o    Outcome
		want string
	}{
		{Delivered, "delivered"},
		{Lost, "lost"},
		{Collided, "collided"},
		{Outcome(9), "Outcome(9)"},
	}
	for _, tc := range tests {
		if got := tc.o.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int(tc.o), got, tc.want)
		}
	}
}

func TestAirtimeAccounting(t *testing.T) {
	eng, m := newTestMedium(t, 1, 1, 1, 1)
	// One clean data exchange of 100us.
	m.Start(0, 100, false, nil)
	eng.Run()
	// One clean empty frame of 70us, starting at 100.
	m.Start(1, 70, true, nil)
	eng.Run()
	// Two overlapping data transmissions: 50us and 80us starting together.
	m.Start(0, 50, false, nil)
	m.Start(2, 80, false, nil)
	eng.Run()
	at := m.Airtime()
	if at.Data != 100 {
		t.Errorf("data airtime = %v, want 100", at.Data)
	}
	if at.Empty != 70 {
		t.Errorf("empty airtime = %v, want 70", at.Empty)
	}
	if at.Collided != 50+80 {
		t.Errorf("collided airtime = %v, want 130 (summed, not union)", at.Collided)
	}
	// Union busy time: 100 + 70 + 80 (the collision burst spans 80us).
	if at.Busy != 250 {
		t.Errorf("busy airtime = %v, want 250 (union)", at.Busy)
	}
	busy, data, empty, collided := at.Shares(eng.Now())
	if busy != 1 || data != 100.0/250 || empty != 70.0/250 || collided != 130.0/250 {
		t.Errorf("shares = %v %v %v %v, want 1 0.4 0.28 0.52", busy, data, empty, collided)
	}
	if busy, data, empty, collided := at.Shares(0); busy != 0 || data != 0 || empty != 0 || collided != 0 {
		t.Errorf("shares at time zero = %v %v %v %v, want all 0", busy, data, empty, collided)
	}
	if got := m.Stats().BusyTime; got != at.Busy {
		t.Errorf("Stats().BusyTime = %v disagrees with Airtime().Busy = %v", got, at.Busy)
	}
}

func TestStatsRoutedThroughRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := sim.NewEngine(1)
	m, err := New(eng, []float64{1, 1}, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if m.Registry() != reg {
		t.Fatal("medium did not adopt the shared registry")
	}
	m.Start(0, 100, false, nil)
	eng.Run()
	if got := reg.Counter("rtmac_tx_total", "").Value(); got != 1 {
		t.Errorf("registry rtmac_tx_total = %d, want 1", got)
	}
	if got := reg.Counter("rtmac_tx_delivered_total", "").Value(); got != 1 {
		t.Errorf("registry rtmac_tx_delivered_total = %d, want 1", got)
	}
	st := m.Stats()
	if st.Transmissions != 1 || st.Deliveries != 1 {
		t.Errorf("Stats() compatibility view = %+v, want 1 transmission / 1 delivery", st)
	}
}

func TestStatsMidFlightPanics(t *testing.T) {
	_, m := newTestMedium(t, 1)
	m.Start(0, 100, false, func(Outcome) {})
	for name, read := range map[string]func(){
		"Stats":   func() { m.Stats() },
		"Airtime": func() { m.Airtime() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s read mid-transmission did not panic", name)
				}
			}()
			read()
		}()
	}
}

func TestStatsQuiescentAfterRun(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	m.Start(0, 100, false, func(Outcome) {})
	eng.Run()
	// At an interval boundary the reads are legal and must not panic.
	if m.Stats().Transmissions != 1 {
		t.Fatal("stats lost the transmission")
	}
	if m.Airtime().Busy != 100 {
		t.Fatal("airtime lost the busy span")
	}
}
