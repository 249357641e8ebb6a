package health

import (
	"testing"
	"time"

	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// begin and end drive the watchdog's probe records the way the network
// brackets one interval.
func begin(w *Watchdog) { w.BeginInterval(0, 0, 0, nil, nil) }

func end(w *Watchdog, k int64, at sim.Time) { w.EndInterval(k, at, 0, 0, 0, nil) }

// captureSink records emitted events with their payload copied into Fields
// (the watchdog reuses its payload, per the Sink contract).
type captureSink struct {
	events []telemetry.Event
}

func (s *captureSink) Emit(ev telemetry.Event) {
	cp := ev
	cp.Payload, cp.Fields = nil, ev.Payload.Map()
	s.events = append(s.events, cp)
}

func TestWatchdogFiresUnderTinyBudget(t *testing.T) {
	sink := &captureSink{}
	w := NewWatchdog(WatchdogConfig{Budget: time.Nanosecond, Sink: sink})

	begin(w)
	time.Sleep(2 * time.Millisecond) // guarantee the 1 ns budget is blown
	end(w, 7, 12345)

	st := w.Status()
	if st.Intervals != 1 {
		t.Fatalf("intervals = %d, want 1", st.Intervals)
	}
	if st.Overruns != 1 {
		t.Fatalf("overruns = %d, want 1: watchdog did not fire", st.Overruns)
	}
	if st.MaxOverrunNS < int64(time.Millisecond) {
		t.Errorf("max overrun %d ns implausibly small for a 2 ms sleep", st.MaxOverrunNS)
	}
	if got := st.StallsGC + st.StallsSched + st.StallsUser; got != 1 {
		t.Errorf("stall cause tallies sum to %d, want 1", got)
	}

	if len(sink.events) != 1 {
		t.Fatalf("emitted %d events, want 1", len(sink.events))
	}
	ev := sink.events[0]
	if ev.Kind != telemetry.EventStall {
		t.Errorf("kind = %q, want %q", ev.Kind, telemetry.EventStall)
	}
	if ev.K != 7 || ev.At != 12345 || ev.Link != -1 {
		t.Errorf("event coords = (k=%d, t=%d, link=%d), want (7, 12345, -1)", ev.K, ev.At, ev.Link)
	}
	for _, f := range []string{"budget_ns", "elapsed_ns", "overrun_ns", "gc_pause_ns", "gc_pauses", "sched_p99_ns", "cause"} {
		if _, ok := ev.Fields[f]; !ok {
			t.Errorf("stall event missing field %q", f)
		}
	}
	if ev.Fields["elapsed_ns"] < float64(time.Millisecond) {
		t.Errorf("elapsed %v ns too small for a 2 ms sleep", ev.Fields["elapsed_ns"])
	}
	if c := ev.Fields["cause"]; c != CauseUser && c != CauseGC && c != CauseSched {
		t.Errorf("cause = %v not a known code", c)
	}
}

func TestWatchdogQuietUnderHugeBudget(t *testing.T) {
	sink := &captureSink{}
	w := NewWatchdog(WatchdogConfig{Budget: time.Hour, Sink: sink})
	for k := int64(0); k < 100; k++ {
		begin(w)
		end(w, k, 0)
	}
	st := w.Status()
	if st.Intervals != 100 {
		t.Fatalf("intervals = %d, want 100", st.Intervals)
	}
	if st.Overruns != 0 || len(sink.events) != 0 {
		t.Fatalf("overruns = %d, events = %d; want 0 under a 1h budget", st.Overruns, len(sink.events))
	}
	if st.MaxElapsedNS <= 0 {
		t.Errorf("max elapsed not tracked")
	}
}

func TestWatchdogEndWithoutBeginIsNoop(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Budget: time.Nanosecond})
	end(w, 0, 0)
	if st := w.Status(); st.Intervals != 0 || st.Overruns != 0 {
		t.Fatalf("orphan EndInterval counted: %+v", st)
	}
}

func TestWatchdogDisabledBudgetNeverOverruns(t *testing.T) {
	sink := &captureSink{}
	w := NewWatchdog(WatchdogConfig{Budget: 0, Sink: sink})
	begin(w)
	time.Sleep(time.Millisecond)
	end(w, 0, 0)
	if st := w.Status(); st.Overruns != 0 || len(sink.events) != 0 {
		t.Fatalf("zero budget must disable detection: %+v", st)
	}
}

func TestWatchdogMergeInto(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Budget: time.Nanosecond})
	begin(w)
	time.Sleep(time.Millisecond)
	end(w, 0, 0)

	var s telemetry.HealthSummary
	w.MergeInto(&s)
	if s.WatchdogBudgetNS != 1 || s.WatchdogIntervals != 1 || s.Overruns != 1 {
		t.Fatalf("summary not stamped: %+v", s)
	}
	if s.StallsGC+s.StallsSched+s.StallsUser != 1 {
		t.Fatalf("cause tallies not merged: %+v", s)
	}
}

// BenchmarkWatchdogInterval measures the in-budget bracket cost; the report
// asserts it allocates nothing, which is what lets the sim driver call it
// every interval without breaking the zero-alloc hot-path contract.
func BenchmarkWatchdogInterval(b *testing.B) {
	w := NewWatchdog(WatchdogConfig{Budget: time.Hour})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		begin(w)
		end(w, int64(i), 0)
	}
	if st := w.Status(); st.Overruns != 0 {
		b.Fatalf("unexpected overruns during benchmark: %d", st.Overruns)
	}
}

func TestWatchdogIntervalZeroAlloc(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Budget: time.Hour})
	k := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		begin(w)
		end(w, k, 0)
		k++
	})
	if allocs != 0 {
		t.Fatalf("in-budget watchdog bracket allocates %.1f/interval, want 0", allocs)
	}
}
