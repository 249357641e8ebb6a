package rtmac_test

import (
	"bytes"
	"fmt"
	"testing"

	"rtmac"
	"rtmac/internal/experiment"
	"rtmac/internal/rundiff"
)

// equivalenceProtocols lists every policy that must be byte-identical between
// a configuration without a conflict graph and one with the explicit
// complete conflict graph.
func equivalenceProtocols() []struct {
	name string
	p    rtmac.Protocol
} {
	return []struct {
		name string
		p    rtmac.Protocol
	}{
		{"dbdp", rtmac.DBDP()},
		{"ldf", rtmac.LDF()},
		{"eldf", rtmac.ELDF(rtmac.PaperInfluence())},
		{"fcsma", rtmac.FCSMA()},
		{"dcf", rtmac.DCF()},
		{"framecsma", rtmac.FrameCSMA()},
		{"tdma", rtmac.TDMA()},
	}
}

// equivRun executes the control scenario under the given conflict graph and
// returns the raw event stream, the raw journey stream, and the figure CSV
// built from the final report (delivery ratio per link — the same quantity
// the figure pipeline plots).
func equivRun(t *testing.T, protocol rtmac.Protocol, conflicts *rtmac.ConflictGraph) (events, journeys, csv []byte) {
	t.Helper()
	const n = 10
	links := make([]rtmac.Link, n)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:      42,
		Profile:   rtmac.ControlProfile(),
		Links:     links,
		Conflicts: conflicts,
		Protocol:  protocol,
	})
	if err != nil {
		t.Fatal(err)
	}
	var evBuf, jBuf bytes.Buffer
	stream := s.StreamEvents(&evBuf)
	jt, err := s.EnableJourneys(&jBuf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(300); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	result := &experiment.Result{ID: "equiv", Title: "delivery ratio by link"}
	series := experiment.Series{Label: protocol.Label()}
	for i, l := range rep.Links {
		series.X = append(series.X, float64(i))
		series.Y = append(series.Y, l.DeliveryRatio)
	}
	result.Series = append(result.Series, series)
	var csvBuf bytes.Buffer
	if err := experiment.WriteCSV(&csvBuf, result); err != nil {
		t.Fatal(err)
	}
	return evBuf.Bytes(), jBuf.Bytes(), csvBuf.Bytes()
}

// TestCompleteGraphEquivalence checks that Config.Conflicts == nil keeps its
// meaning: configuring the explicit complete graph must reproduce a run
// without one byte-for-byte — event streams, journey attributions, and
// figure CSVs — for every protocol. Both runs take the same medium path (the
// medium builds the complete graph when given none); the recorded
// complete/<protocol> digests of TestGraphModeStreamsPinned pin the bytes
// themselves. A mismatch is routed through rundiff so the failure carries a
// first-divergence pointer instead of a bare "streams differ".
func TestCompleteGraphEquivalence(t *testing.T) {
	for _, tc := range equivalenceProtocols() {
		t.Run(tc.name, func(t *testing.T) {
			complete, err := rtmac.CompleteConflicts(10)
			if err != nil {
				t.Fatal(err)
			}
			baseEv, baseJ, baseCSV := equivRun(t, tc.p, nil)
			gotEv, gotJ, gotCSV := equivRun(t, tc.p, complete)
			if !bytes.Equal(baseEv, gotEv) {
				t.Error(firstDivergence(t, baseEv, gotEv))
			}
			if !bytes.Equal(baseJ, gotJ) {
				t.Errorf("journey streams differ (%d vs %d bytes)", len(baseJ), len(gotJ))
			}
			if !bytes.Equal(baseCSV, gotCSV) {
				t.Errorf("figure CSVs differ:\n--- nil graph\n%s\n--- complete graph\n%s", baseCSV, gotCSV)
			}
		})
	}
}

// firstDivergence renders an event-stream mismatch as a rundiff
// first-divergence pointer.
func firstDivergence(t *testing.T, a, b []byte) string {
	t.Helper()
	d, err := rundiff.DiffEvents(bytes.NewReader(a), bytes.NewReader(b), rundiff.Options{})
	if err != nil {
		return fmt.Sprintf("event streams differ and rundiff failed to locate the divergence: %v", err)
	}
	if d.Equal {
		return "event streams differ in bytes but rundiff aligned them — header or trailing difference"
	}
	div := d.Divergence
	return fmt.Sprintf("event streams diverge first at interval %d (kind=%s link=%d): nil-graph %v vs complete-graph %v",
		div.K(), div.Kind(), div.Link(), div.A, div.B)
}
