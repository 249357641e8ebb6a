package rtmac

import (
	"bytes"
	"testing"

	"rtmac/internal/telemetry"
)

// TestViolationsFollowTheirEvents attaches the monitor before and after the
// event stream. Either way the stream writes each event before any probe
// sees it, so every violation line follows the tx line that triggered it.
// DCF collides, and arming collision_free for it makes every collision a
// violation.
func TestViolationsFollowTheirEvents(t *testing.T) {
	for _, monitorFirst := range []bool{true, false} {
		name := "stream_first"
		if monitorFirst {
			name = "monitor_first"
		}
		t.Run(name, func(t *testing.T) {
			prot := DCF()
			prot.collisionFree = true
			links := make([]Link, 6)
			for i := range links {
				links[i] = Link{SuccessProb: 0.8, Arrivals: MustBernoulliArrivals(0.7), DeliveryRatio: 0.9}
			}
			s, err := NewSimulation(Config{Seed: 2, Profile: ControlProfile(), Links: links, Protocol: prot})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			var (
				stream *EventStream
				mon    *Monitor
			)
			if monitorFirst {
				mon, err = s.EnableMonitor(MonitorConfig{})
				stream = s.StreamEvents(&buf)
			} else {
				stream = s.StreamEvents(&buf)
				mon, err = s.EnableMonitor(MonitorConfig{})
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(100); err != nil {
				t.Fatal(err)
			}
			if err := stream.Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := telemetry.DecodeJSONL(&buf)
			if err != nil {
				t.Fatal(err)
			}
			type txKey struct {
				k    int64
				at   Time
				link int
			}
			seen := make(map[txKey]bool)
			lines := 0
			for i, ev := range events {
				key := txKey{ev.K, ev.At, ev.Link}
				switch {
				case ev.Kind == telemetry.EventTx:
					seen[key] = true
				case ev.Kind == telemetry.EventViolation && ev.Check == "collision_free":
					if !seen[key] {
						t.Fatalf("line %d: violation %+v precedes its tx line", i, ev)
					}
					lines++
				}
			}
			if lines == 0 || int64(lines) != mon.Count() {
				t.Errorf("%d violation lines, monitor counted %d", lines, mon.Count())
			}
		})
	}
}

// boardCheck is a sink that, at every interval event, reads the live
// /api/links board and records whether the interval's debt point is there.
type boardCheck struct {
	s      *Simulation
	seen   int
	behind []int64
}

func (b *boardCheck) Emit(ev telemetry.Event) {
	if ev.Kind != telemetry.EventInterval {
		return
	}
	b.seen++
	pts := b.s.linkBoard().Links[0].Debt
	if len(pts) == 0 || pts[len(pts)-1].K != ev.K {
		b.behind = append(b.behind, ev.K)
	}
}

// TestLinkBoardNotBehindIntervalEvent pins that the journey tracer closes
// an interval before the interval event reaches any sink, whichever of the
// two was attached first, so /api/links never lags the SSE stream.
func TestLinkBoardNotBehindIntervalEvent(t *testing.T) {
	for _, journeysFirst := range []bool{true, false} {
		links := make([]Link, 4)
		for i := range links {
			links[i] = Link{SuccessProb: 0.8, Arrivals: MustBernoulliArrivals(0.7), DeliveryRatio: 0.9}
		}
		s, err := NewSimulation(Config{Seed: 4, Profile: ControlProfile(), Links: links, Protocol: DBDP()})
		if err != nil {
			t.Fatal(err)
		}
		check := &boardCheck{s: s}
		if journeysFirst {
			_, err = s.EnableJourneys(nil, 1)
			s.addSink(check)
		} else {
			s.addSink(check)
			_, err = s.EnableJourneys(nil, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(50); err != nil {
			t.Fatal(err)
		}
		if check.seen != 50 || len(check.behind) != 0 {
			t.Errorf("journeys first %v: %d interval events, board behind at %v", journeysFirst, check.seen, check.behind)
		}
	}
}
