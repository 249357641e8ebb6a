package rtmac_test

import (
	"bytes"
	"math/rand"
	"testing"

	"rtmac"
)

// propertyGraph is one interference topology the property sweep runs under.
type propertyGraph struct {
	name  string
	links int
	edges [][2]int
}

// propertyGraphs covers the structural corners of the conflict-graph space:
// a star (one hub blocks everyone, leaves reuse freely), a ring (every link
// has exactly two conflicts), a complete bipartite graph (two independent
// halves, full cross-conflict), two disjoint cliques (clean collision
// domains), a disconnected sprinkle (a triangle plus isolated links), and
// seeded random graphs.
func propertyGraphs(t *testing.T) []propertyGraph {
	t.Helper()
	const n = 8
	graphs := []propertyGraph{
		{name: "star", links: n},
		{name: "ring", links: n},
		{name: "bipartite", links: n},
		{name: "two-cliques", links: n},
		{name: "disconnected", links: n, edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}},
	}
	for i := 1; i < n; i++ {
		graphs[0].edges = append(graphs[0].edges, [2]int{0, i})
	}
	for i := 0; i < n; i++ {
		graphs[1].edges = append(graphs[1].edges, [2]int{i, (i + 1) % n})
	}
	for i := 0; i < n/2; i++ {
		for j := n / 2; j < n; j++ {
			graphs[2].edges = append(graphs[2].edges, [2]int{i, j})
		}
	}
	for _, clique := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for i := 0; i < len(clique); i++ {
			for j := i + 1; j < len(clique); j++ {
				graphs[3].edges = append(graphs[3].edges, [2]int{clique[i], clique[j]})
			}
		}
	}
	rng := rand.New(rand.NewSource(99))
	for r := 0; r < 2; r++ {
		g := propertyGraph{name: []string{"random-sparse", "random-dense"}[r], links: n}
		prob := 0.25 + 0.4*float64(r)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < prob {
					g.edges = append(g.edges, [2]int{i, j})
				}
			}
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// propertyProtocols is the full policy catalog with its graph-mode
// collision-freedom expectations: the greedy-independent-set, coloring, and
// sequential schedulers never collide on any graph; DB-DP's guarantee is a
// complete-graph property, and the random-access baselines collide by
// design.
func propertyProtocols() []struct {
	name          string
	p             rtmac.Protocol
	collisionFree bool
} {
	return []struct {
		name          string
		p             rtmac.Protocol
		collisionFree bool
	}{
		{"dbdp", rtmac.DBDP(), false},
		{"ldf", rtmac.LDF(), true},
		{"eldf", rtmac.ELDF(rtmac.PaperInfluence()), true},
		{"fcsma", rtmac.FCSMA(), false},
		{"dcf", rtmac.DCF(), false},
		{"framecsma", rtmac.FrameCSMA(), true},
		{"tdma", rtmac.TDMA(), true},
	}
}

type propertySpan struct {
	start, end rtmac.Time
	link       int
	collided   bool
}

// TestConcurrentTransmittersFormIndependentSet is the spatial-reuse safety
// property: across randomized conflict graphs and every protocol, any two
// transmissions that overlap in time on *conflicting* links must both have
// resolved as collisions — equivalently, the non-collided concurrent
// transmitters always form an independent set of the conflict graph. The
// strict runtime monitor (with its generalized collision_free and
// airtime_conserved checkers) runs alongside and must stay silent.
func TestConcurrentTransmittersFormIndependentSet(t *testing.T) {
	intervals := 1000
	if testing.Short() {
		intervals = 200
	}
	for _, g := range propertyGraphs(t) {
		graph, err := rtmac.NewConflictGraph(g.links, g.edges)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, tc := range propertyProtocols() {
			t.Run(g.name+"/"+tc.name, func(t *testing.T) {
				links := make([]rtmac.Link, g.links)
				for i := range links {
					links[i] = rtmac.Link{
						SuccessProb:   0.8,
						Arrivals:      rtmac.MustBernoulliArrivals(0.6),
						DeliveryRatio: 0.9,
					}
				}
				s, err := rtmac.NewSimulation(rtmac.Config{
					Seed:      uint64(17 + len(g.edges)),
					Profile:   rtmac.ControlProfile(),
					Links:     links,
					Conflicts: graph,
					Protocol:  tc.p,
				})
				if err != nil {
					t.Fatal(err)
				}
				mon, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				stream := s.StreamEvents(&buf)
				if err := s.Run(intervals); err != nil {
					t.Fatalf("run aborted: %v", err)
				}
				if err := stream.Flush(); err != nil {
					t.Fatal(err)
				}
				if mon.Count() != 0 {
					t.Fatalf("monitor reported %d violations, first: %v", mon.Count(), mon.Violations()[0])
				}
				events, err := rtmac.DecodeEvents(&buf)
				if err != nil {
					t.Fatal(err)
				}
				spans := make(map[int64][]propertySpan)
				collided := 0
				for _, ev := range events {
					if ev.Kind != "tx" {
						continue
					}
					dur := rtmac.Time(ev.Fields["dur"])
					isCollided := ev.Fields["outcome"] == 2
					if isCollided {
						collided++
					}
					spans[ev.K] = append(spans[ev.K], propertySpan{
						start: ev.At - dur, end: ev.At, link: ev.Link, collided: isCollided,
					})
				}
				if tc.collisionFree && collided > 0 {
					t.Errorf("%d collided transmissions under a collision-free-on-graph policy", collided)
				}
				for k, ss := range spans {
					for i := 0; i < len(ss); i++ {
						for j := i + 1; j < len(ss); j++ {
							a, b := ss[i], ss[j]
							if a.start >= b.end || b.start >= a.end {
								continue
							}
							if !graph.Conflicts(a.link, b.link) {
								continue
							}
							if !a.collided || !b.collided {
								t.Fatalf("interval %d: conflicting links %d and %d overlap ([%v,%v] vs [%v,%v]) without both colliding",
									k, a.link, b.link, a.start, a.end, b.start, b.end)
							}
						}
					}
				}
			})
		}
	}
}

// TestSpatialReuseImprovesDelivery is the acceptance bound for the tentpole:
// on the two-clique topology of scenarios/spatial.json, DB-DP with the
// partial conflict graph must deliver a strictly higher aggregate delivery
// ratio than the same load on the fully-interfering channel — with a real
// margin, not a tie-break.
func TestSpatialReuseImprovesDelivery(t *testing.T) {
	intervals := 1500
	if testing.Short() {
		intervals = 400
	}
	run := func(conflicts *rtmac.ConflictGraph) float64 {
		t.Helper()
		links := make([]rtmac.Link, 10)
		for i := range links {
			links[i] = rtmac.Link{
				SuccessProb:   0.9,
				Arrivals:      rtmac.FixedArrivals(2),
				DeliveryRatio: 0.95,
			}
		}
		s, err := rtmac.NewSimulation(rtmac.Config{
			Seed:      1,
			Profile:   rtmac.ControlProfile(),
			Links:     links,
			Conflicts: conflicts,
			Protocol:  rtmac.DBDP(),
		})
		if err != nil {
			t.Fatal(err)
		}
		mon, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(intervals); err != nil {
			t.Fatalf("run aborted: %v", err)
		}
		if mon.Count() != 0 {
			t.Fatalf("monitor reported %d violations, first: %v", mon.Count(), mon.Violations()[0])
		}
		total := 0.0
		for _, l := range s.Report().Links {
			total += l.DeliveryRatio
		}
		return total / float64(len(s.Report().Links))
	}
	cliques, err := rtmac.CliqueConflicts(10, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	sparse := run(cliques)
	complete := run(nil)
	if sparse <= complete+0.05 {
		t.Fatalf("spatial reuse did not help: sparse mean delivery ratio %.4f vs complete %.4f",
			sparse, complete)
	}
	t.Logf("mean delivery ratio: two cliques %.4f, complete graph %.4f", sparse, complete)
}

// TestConflictsOutOfRange pins the public conflict query at the edges of
// the link range: a link outside [0, Links()) conflicts with nothing, not
// with whatever bit of another link's row its index lands on.
func TestConflictsOutOfRange(t *testing.T) {
	g, err := rtmac.NewConflictGraph(10, [][2]int{{0, 1}, {3, 8}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a, b int
		want bool
	}{
		{0, 1, true},
		{1, 0, true},
		{3, 8, true},
		{0, 2, false},
		{4, 4, true},
		{9, 9, true},
		{0, 200, false}, // index 200 lands on link 3's row, bit 8: the 3-8 edge
		{200, 0, false},
		{-1, 3, false},
		{3, -1, false},
		{10, 10, false},
		{-1, -1, false},
		{0, 10, false},
		{9, 10, false},
	} {
		if got := g.Conflicts(tc.a, tc.b); got != tc.want {
			t.Errorf("Conflicts(%d, %d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestZeroConflictGraphRejected pins the zero ConflictGraph as invalid:
// NewSimulation and CheckFeasibility reject it instead of reading it as the
// fully-interfering channel, and its methods answer without panicking.
func TestZeroConflictGraphRejected(t *testing.T) {
	links := make([]rtmac.Link, 4)
	for i := range links {
		links[i] = rtmac.Link{SuccessProb: 0.9, Arrivals: rtmac.MustBernoulliArrivals(0.5), DeliveryRatio: 0.9}
	}
	cfg := rtmac.Config{
		Seed:      1,
		Profile:   rtmac.ControlProfile(),
		Links:     links,
		Protocol:  rtmac.DBDP(),
		Conflicts: &rtmac.ConflictGraph{},
	}
	if _, err := rtmac.NewSimulation(cfg); err == nil {
		t.Error("NewSimulation accepted the zero ConflictGraph")
	}
	if _, err := rtmac.CheckFeasibility(cfg, 10); err == nil {
		t.Error("CheckFeasibility accepted the zero ConflictGraph")
	}
	g := &rtmac.ConflictGraph{}
	if g.Links() != 0 || g.Edges() != 0 || g.Complete() || g.Conflicts(0, 0) {
		t.Errorf("zero graph: Links %d, Edges %d, Complete %v, Conflicts(0, 0) %v",
			g.Links(), g.Edges(), g.Complete(), g.Conflicts(0, 0))
	}
	if g.String() == "" {
		t.Error("zero graph has an empty String")
	}
}
