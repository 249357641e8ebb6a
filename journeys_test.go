package rtmac_test

import (
	"bytes"
	"strings"
	"testing"

	"rtmac"
)

func journeySim(t *testing.T, protocol rtmac.Protocol, seed uint64) *rtmac.Simulation {
	t.Helper()
	links := make([]rtmac.Link, 10)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     seed,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: protocol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJourneyReconciliation is the acceptance invariant of the attribution
// classifier: with sample == 1, Σ per-cause miss attributions + deliveries
// equals the total packet count for every protocol on the control scenario,
// and the delivered tally matches the medium's own delivery counter.
func TestJourneyReconciliation(t *testing.T) {
	protocols := map[string]rtmac.Protocol{
		"dbdp":      rtmac.DBDP(),
		"ldf":       rtmac.LDF(),
		"fcsma":     rtmac.FCSMA(),
		"dcf":       rtmac.DCF(),
		"framecsma": rtmac.FrameCSMA(),
		"tdma":      rtmac.TDMA(),
	}
	for name, protocol := range protocols {
		t.Run(name, func(t *testing.T) {
			s := journeySim(t, protocol, 7)
			var journeyOut, eventOut bytes.Buffer
			j, err := s.EnableJourneys(&journeyOut, 1)
			if err != nil {
				t.Fatal(err)
			}
			ev := s.StreamEvents(&eventOut, rtmac.OnlyEvents("interval"))
			if err := s.Run(400); err != nil {
				t.Fatal(err)
			}
			if err := j.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ev.Flush(); err != nil {
				t.Fatal(err)
			}

			agg := j.Attribution()
			if !agg.Reconciles() {
				t.Fatalf("attribution does not reconcile: %+v", agg)
			}
			if agg.Total != j.Seen() {
				t.Fatalf("total %d != packets seen %d (sample=1 must record all)", agg.Total, j.Seen())
			}
			if agg.Total != j.Count() {
				t.Fatalf("total %d != journeys streamed %d", agg.Total, j.Count())
			}

			// Cross-check against the independent run-level accounting: the
			// interval events carry the per-interval arrival/served totals.
			events, err := rtmac.DecodeEvents(&eventOut)
			if err != nil {
				t.Fatal(err)
			}
			var arrivals, served int64
			for _, e := range events {
				arrivals += int64(e.Fields["arrivals"])
				served += int64(e.Fields["served"])
			}
			if agg.Total != arrivals {
				t.Errorf("attribution total %d != %d packets arrived", agg.Total, arrivals)
			}
			if agg.Delivered != served {
				t.Errorf("attribution delivered %d != %d packets served", agg.Delivered, served)
			}
			delivered, err := s.Telemetry().Counter("rtmac_tx_delivered_total")
			if err != nil {
				t.Fatal(err)
			}
			if agg.Delivered != delivered {
				t.Errorf("attribution delivered %d != medium delivery counter %d", agg.Delivered, delivered)
			}

			// Per-link tallies reconcile and sum to the network-wide one.
			var merged rtmac.Attribution
			for link := 0; link < 10; link++ {
				la, err := j.LinkAttribution(link)
				if err != nil {
					t.Fatal(err)
				}
				if !la.Reconciles() {
					t.Fatalf("link %d attribution does not reconcile: %+v", link, la)
				}
				merged.Merge(la)
			}
			if merged != agg {
				t.Errorf("per-link tallies %+v do not sum to network-wide %+v", merged, agg)
			}

			// Every streamed journey is structurally valid.
			js, err := rtmac.DecodeJourneys(&journeyOut)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(js)) != agg.Total {
				t.Fatalf("decoded %d journeys, attribution total %d", len(js), agg.Total)
			}
			for i := range js {
				if err := js[i].Validate(); err != nil {
					t.Fatalf("journey %d: %v", i, err)
				}
			}

			// Every link has one debt-timeline point per simulated interval
			// (capped by the ring), stamped with consecutive interval indices.
			pts, err := j.Timeline(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != 400 {
				t.Fatalf("timeline holds %d points, want 400", len(pts))
			}
			for i, p := range pts {
				if p.K != int64(i) {
					t.Fatalf("timeline point %d has k=%d", i, p.K)
				}
			}
		})
	}
}

// TestJourneyDeterminism: same seed, same config → byte-identical streams.
func TestJourneyDeterminism(t *testing.T) {
	run := func() string {
		s := journeySim(t, rtmac.DBDP(), 11)
		var out bytes.Buffer
		j, err := s.EnableJourneys(&out, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(200); err != nil {
			t.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("journey streams differ between identical runs")
	}
	if !strings.Contains(a, "\"cause\":\"delivered\"") {
		t.Fatal("no delivered journeys recorded")
	}
}

// TestJourneySampling: stride sampling bounds the stream while keeping every
// recorded journey valid, and DBDP journeys carry the link's priority.
func TestJourneySampling(t *testing.T) {
	s := journeySim(t, rtmac.DBDP(), 3)
	var out bytes.Buffer
	j, err := s.EnableJourneys(&out, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(300); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	seen, count := j.Seen(), j.Count()
	if count == 0 {
		t.Fatal("nothing recorded")
	}
	// Stride 10 keeps ceil(seen/10) packets.
	if want := (seen + 9) / 10; count != want {
		t.Fatalf("recorded %d of %d packets, want %d", count, seen, want)
	}
	js, err := rtmac.DecodeJourneys(&out)
	if err != nil {
		t.Fatal(err)
	}
	withPrio := 0
	for i := range js {
		if err := js[i].Validate(); err != nil {
			t.Fatalf("journey %d: %v", i, err)
		}
		if js[i].Prio > 0 {
			withPrio++
		}
	}
	if withPrio != len(js) {
		t.Errorf("%d of %d DBDP journeys missing a priority", len(js)-withPrio, len(js))
	}
	if up, down, err := j.Swaps(0); err != nil || up+down == 0 {
		t.Errorf("no swap annotations on link 0 (up=%d down=%d err=%v)", up, down, err)
	}
}

func TestEnableJourneysRejectsBadSample(t *testing.T) {
	s := journeySim(t, rtmac.DBDP(), 1)
	if _, err := s.EnableJourneys(nil, 0); err == nil {
		t.Fatal("sample 0 accepted")
	}
}

// TestEnableJourneysTwiceRejected pins that a second EnableJourneys fails
// instead of attaching a second tracer: the first handle keeps counting and
// stays the one /api/links serves.
func TestEnableJourneysTwiceRejected(t *testing.T) {
	s := journeySim(t, rtmac.DBDP(), 1)
	first, err := s.EnableJourneys(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.EnableJourneys(nil, 1)
	if err == nil || !strings.Contains(err.Error(), "already enabled") {
		t.Fatalf("second EnableJourneys = %v, %v; want an already-enabled error", second, err)
	}
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if first.Seen() == 0 {
		t.Fatal("first tracer stopped counting after a rejected second EnableJourneys")
	}
	if got, want := first.Attribution().Delivered, int64(s.Report().Channel.Deliveries); got != want {
		t.Fatalf("first tracer counted %d deliveries, channel delivered %d", got, want)
	}
}
