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

// ringConflicts is the ring over n links: link i conflicts with i-1 and i+1
// (mod n).
func ringConflicts(tb testing.TB, n int) *rtmac.ConflictGraph {
	tb.Helper()
	edges := make([][2]int, n)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	g, err := rtmac.NewConflictGraph(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// pinConfig is the property-graph workload (p = 0.8, Bernoulli 0.6
// arrivals, delivery ratio 0.9, seed 7) on n links and the given conflict
// graph; nil is the fully-interfering channel.
func pinConfig(n int, graph *rtmac.ConflictGraph, protocol rtmac.Protocol) rtmac.Config {
	links := make([]rtmac.Link, n)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.8,
			Arrivals:      rtmac.MustBernoulliArrivals(0.6),
			DeliveryRatio: 0.9,
		}
	}
	return rtmac.Config{
		Seed:      7,
		Profile:   rtmac.ControlProfile(),
		Links:     links,
		Conflicts: graph,
		Protocol:  protocol,
	}
}

// videoPinConfig is the video workload of the video/<protocol> pins and the
// BenchmarkIntervalVideo* benchmarks: 20 links on the fully-interfering
// video profile (p = 0.7, bursts of 1-6 packets with probability 0.55,
// delivery ratio 0.9, seed 7). Unlike the control profile, links hold
// several packets per interval, so the baselines drain backlogs
// mid-interval.
func videoPinConfig(protocol rtmac.Protocol) rtmac.Config {
	links := make([]rtmac.Link, 20)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustVideoArrivals(0.55),
			DeliveryRatio: 0.9,
		}
	}
	return rtmac.Config{
		Seed:     7,
		Profile:  rtmac.VideoProfile(),
		Links:    links,
		Protocol: protocol,
	}
}

// TestGraphModeStreamsPinned pins the event and journey streams of every
// protocol on every property graph, plus the 50-link five-clique DB-DP
// workload, to digests recorded before the graph-mode contention clock was
// rebuilt around a due-time tree. The 130-link clique and ring pins were
// recorded before carrier sensing moved to batched bitset transitions;
// they are the only pins whose neighbourhoods span several words. All of
// them predate the contention clock counting each clique component on one
// grid. TestCompleteGraphEquivalence compares two runs of the same
// complete-graph code; these pins are the byte-identity guard for the
// clique and non-clique components alike. The complete/<protocol> pins run
// the same workload on the fully-interfering channel (nil conflicts),
// pinning its one-grid streams against a recorded digest rather than a
// second run of the same code. The video/<protocol> pins run
// videoPinConfig, where each link drains a multi-packet backlog within the
// interval. Regenerate with -update-graph-pins only for
// an intended behaviour change.
func TestGraphModeStreamsPinned(t *testing.T) {
	const intervals = 1000
	got := map[string]graphStreamPin{}
	for _, g := range propertyGraphs(t) {
		graph, err := rtmac.NewConflictGraph(g.links, g.edges)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, tc := range propertyProtocols() {
			got[g.name+"/"+tc.name] = graphStreamDigests(t, pinConfig(g.links, graph, tc.p), intervals)
		}
	}
	for _, tc := range propertyProtocols() {
		got["complete/"+tc.name] = graphStreamDigests(t, pinConfig(8, nil, tc.p), intervals)
	}
	got["five-cliques-50/dbdp"] = graphStreamDigests(t, cliqueConfig(t, 50, rtmac.DBDP(), 7), intervals)
	// Wider than one 64-bit word: clique 60-69 and the ring's 63-64 and
	// 127-128 edges straddle word boundaries of the neighbourhood bitsets.
	got["cliques-130/dbdp"] = graphStreamDigests(t, cliqueConfig(t, 130, rtmac.DBDP(), 7), intervals)
	ring := ringConflicts(t, 130)
	for _, tc := range propertyProtocols() {
		got["ring-130/"+tc.name] = graphStreamDigests(t, pinConfig(130, ring, tc.p), intervals)
	}

	for name, p := range map[string]rtmac.Protocol{
		"dbdp": rtmac.DBDP(), "ldf": rtmac.LDF(), "fcsma": rtmac.FCSMA(), "framecsma": rtmac.FrameCSMA(),
	} {
		got["video/"+name] = graphStreamDigests(t, videoPinConfig(p), 300)
	}

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
