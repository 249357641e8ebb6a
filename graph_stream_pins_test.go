package rtmac_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"rtmac"
)

var updateGraphPins = flag.Bool("update-graph-pins", false, "rewrite testdata/graph_stream_pins.json")

const graphPinsPath = "testdata/graph_stream_pins.json"

// graphStreamPin is the SHA-256 of one graph-mode run's event and journey
// streams.
type graphStreamPin struct {
	Events   string `json:"events"`
	Journeys string `json:"journeys"`
}

// graphStreamDigests runs cfg for intervals with a JSONL event stream and
// journeys at sample 1 attached, and hashes both streams.
func graphStreamDigests(t *testing.T, cfg rtmac.Config, intervals int) graphStreamPin {
	t.Helper()
	s, err := rtmac.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events, journeys bytes.Buffer
	stream := s.StreamEvents(&events)
	jt, err := s.EnableJourneys(&journeys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(intervals); err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	ev, jr := sha256.Sum256(events.Bytes()), sha256.Sum256(journeys.Bytes())
	return graphStreamPin{Events: hex.EncodeToString(ev[:]), Journeys: hex.EncodeToString(jr[:])}
}

// cliqueConfig is the control scenario (p = 0.7, Bernoulli 0.78 arrivals,
// delivery ratio 0.99) on n links split into disjoint 10-link cliques.
func cliqueConfig(tb testing.TB, n int, protocol rtmac.Protocol, seed uint64) rtmac.Config {
	tb.Helper()
	var groups [][]int
	for lo := 0; lo < n; lo += 10 {
		g := make([]int, 10)
		for i := range g {
			g[i] = lo + i
		}
		groups = append(groups, g)
	}
	graph, err := rtmac.CliqueConflicts(n, groups)
	if err != nil {
		tb.Fatal(err)
	}
	links := make([]rtmac.Link, n)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	return rtmac.Config{
		Seed:      seed,
		Profile:   rtmac.ControlProfile(),
		Links:     links,
		Conflicts: graph,
		Protocol:  protocol,
	}
}

// TestGraphModeStreamsPinned pins the event and journey streams of every
// protocol on every property graph, plus the 50-link five-clique DB-DP
// workload, to digests recorded before the graph-mode contention clock was
// rebuilt around a due-time tree. Complete graphs take the single grid, so
// TestCompleteGraphEquivalence never reaches this code; these pins are its
// byte-identity guard. Regenerate with -update-graph-pins only for an
// intended behaviour change.
func TestGraphModeStreamsPinned(t *testing.T) {
	const intervals = 1000
	got := map[string]graphStreamPin{}
	for _, g := range propertyGraphs(t) {
		graph, err := rtmac.NewConflictGraph(g.links, g.edges)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, tc := range propertyProtocols() {
			links := make([]rtmac.Link, g.links)
			for i := range links {
				links[i] = rtmac.Link{
					SuccessProb:   0.8,
					Arrivals:      rtmac.MustBernoulliArrivals(0.6),
					DeliveryRatio: 0.9,
				}
			}
			got[g.name+"/"+tc.name] = graphStreamDigests(t, rtmac.Config{
				Seed:      7,
				Profile:   rtmac.ControlProfile(),
				Links:     links,
				Conflicts: graph,
				Protocol:  tc.p,
			}, intervals)
		}
	}
	got["five-cliques-50/dbdp"] = graphStreamDigests(t, cliqueConfig(t, 50, rtmac.DBDP(), 7), intervals)

	if *updateGraphPins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(graphPinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(graphPinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]graphStreamPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d pins, the sweep produced %d", graphPinsPath, len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no pin", name)
		case g.Events != w.Events:
			t.Errorf("%s: event stream sha256 %s, pinned %s", name, g.Events, w.Events)
		case g.Journeys != w.Journeys:
			t.Errorf("%s: journey stream sha256 %s, pinned %s", name, g.Journeys, w.Journeys)
		}
	}
}
