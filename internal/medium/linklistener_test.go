package medium

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"rtmac/internal/sim"
)

// linkSetRecorder is a LinkListener that unpacks every set into its links.
type linkSetRecorder struct {
	calls []string
}

func (r *linkSetRecorder) LinksBusy(set []uint64, at sim.Time) {
	r.calls = append(r.calls, fmt.Sprintf("busy@%d%v", at, setLinks(set)))
}

func (r *linkSetRecorder) LinksIdle(set []uint64, at sim.Time) {
	r.calls = append(r.calls, fmt.Sprintf("idle@%d%v", at, setLinks(set)))
}

// setLinks lists the links of a bitset in ascending order.
func setLinks(set []uint64) []int {
	var links []int
	for w, word := range set {
		for word != 0 {
			links = append(links, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return links
}

// TestLinkTransitionsOnPath walks a 0-1-2 path graph through overlapping,
// chained and draining transmissions and checks each batched transition.
func TestLinkTransitionsOnPath(t *testing.T) {
	g, err := NewGraph(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	m, err := New(eng, []float64{1, 1, 1}, WithGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	rec := &linkSetRecorder{}
	m.SubscribeLinks(rec)
	chained := false
	var onDone func(Outcome)
	onDone = func(Outcome) {
		if !chained {
			// Back to back on link 0: links 0 and 1 stay busy, no flap.
			chained = true
			m.Start(0, 10, false, onDone)
		}
	}
	eng.ScheduleAt(0, func() { m.Start(0, 10, false, onDone) })
	eng.ScheduleAt(5, func() { m.Start(2, 30, false, nil) })
	eng.ScheduleAt(5, func() {
		if !m.BusyFor(0) || !m.BusyFor(1) || !m.BusyFor(2) {
			t.Errorf("t=5: BusyFor = %v %v %v, want all busy", m.BusyFor(0), m.BusyFor(1), m.BusyFor(2))
		}
	})
	eng.ScheduleAt(25, func() {
		if m.BusyFor(0) || !m.BusyFor(1) || !m.BusyFor(2) {
			t.Errorf("t=25: BusyFor = %v %v %v, want idle busy busy", m.BusyFor(0), m.BusyFor(1), m.BusyFor(2))
		}
	})
	eng.Run()
	want := []string{"busy@0[0 1]", "busy@5[2]", "idle@20[0]", "idle@35[1 2]"}
	if !slices.Equal(rec.calls, want) {
		t.Fatalf("transitions %v, want %v", rec.calls, want)
	}
}

// linkModel is the naive per-link carrier-sense and collision model the
// medium is checked against: cnt[j] counts in-flight transmissions whose
// closed neighborhood holds j (found by Conflicts, not by the graph's rows),
// pending[j] marks a neighborhood drained inside a finish whose idle
// notification waits until onDone has returned, and hit[j] marks link j's
// in-flight transmission as overlapped by a conflicting one.
type linkModel struct {
	g       *Graph
	cnt     []int
	pending []bool
	onAir   []bool
	hit     []bool
}

func newLinkModel(g *Graph) *linkModel {
	n := g.Links()
	return &linkModel{g: g, cnt: make([]int, n), pending: make([]bool, n),
		onAir: make([]bool, n), hit: make([]bool, n)}
}

// start raises link's neighborhood, marks the conflicting overlaps it
// creates, and returns the links that turned busy.
func (m *linkModel) start(link int) []int {
	var busy []int
	m.onAir[link], m.hit[link] = true, false
	for j := range m.cnt {
		if !m.g.Conflicts(link, j) {
			continue
		}
		if j != link && m.onAir[j] {
			m.hit[link], m.hit[j] = true, true
		}
		m.cnt[j]++
		if m.cnt[j] == 1 {
			if m.pending[j] {
				m.pending[j] = false
			} else {
				busy = append(busy, j)
			}
		}
	}
	return busy
}

// down lowers link's neighborhood when its transmission finishes and
// returns the outcome the transmission must have: collided exactly when a
// conflicting transmission overlapped it, delivered otherwise (every link
// succeeds with probability 1).
func (m *linkModel) down(link int) Outcome {
	m.onAir[link] = false
	want := Delivered
	if m.hit[link] {
		want = Collided
	}
	for j := range m.cnt {
		if m.g.Conflicts(link, j) {
			if m.cnt[j]--; m.cnt[j] == 0 {
				m.pending[j] = true
			}
		}
	}
	return want
}

// idle settles link's drained neighborhood after onDone and returns the
// links that turned idle.
func (m *linkModel) idle(link int) []int {
	var idle []int
	for j := range m.cnt {
		if m.g.Conflicts(link, j) && m.pending[j] {
			m.pending[j] = false
			idle = append(idle, j)
		}
	}
	return idle
}

// transitionChecker is a LinkListener that requires every call to carry
// exactly the set the model expects next, with BusyFor agreeing with the
// model for every link while the call runs.
type transitionChecker struct {
	t     *testing.T
	m     *Medium
	model *linkModel
	words int
	kind  string // "busy" or "idle": the call expected next, "" for none
	want  []int
	calls int
}

func (c *transitionChecker) expect(kind string, want []int) {
	c.kind, c.want, c.calls = kind, want, 0
}

// settled requires the expected call to have arrived exactly once (or, for
// an empty expectation, not at all).
func (c *transitionChecker) settled(where string) {
	c.t.Helper()
	if c.kind != "" && c.calls != 1 {
		c.t.Fatalf("t=%d: %s: %d Links%s calls for %v, want 1", c.m.eng.Now(), where, c.calls, c.kind, c.want)
	}
	c.kind, c.want = "", nil
}

func (c *transitionChecker) check(kind string, set []uint64, at sim.Time) {
	c.t.Helper()
	if len(set) != c.words {
		c.t.Fatalf("t=%d: Links%s set has %d words, want %d", at, kind, len(set), c.words)
	}
	got := setLinks(set)
	if kind != c.kind || c.calls != 0 || !slices.Equal(got, c.want) {
		c.t.Fatalf("t=%d: Links%s%v (call %d), model expects Links%s%v",
			at, kind, got, c.calls+1, c.kind, c.want)
	}
	c.calls++
	c.busyForAgrees("inside the call")
}

func (c *transitionChecker) busyForAgrees(where string) {
	c.t.Helper()
	for j, n := range c.model.cnt {
		if got := c.m.BusyFor(j); got != (n > 0) {
			c.t.Fatalf("t=%d: %s: BusyFor(%d) = %v, model counts %d transmissions",
				c.m.eng.Now(), where, j, got, n)
		}
	}
}

func (c *transitionChecker) LinksBusy(set []uint64, at sim.Time) { c.check("busy", set, at) }
func (c *transitionChecker) LinksIdle(set []uint64, at sim.Time) { c.check("idle", set, at) }

// fuzzGraph reads a link count in [1, 130], a density and a generator seed
// from the script and draws a random conflict graph.
func fuzzGraph(s []byte) (*Graph, []byte) {
	for len(s) < 3 {
		s = append(s, 0)
	}
	n := 1 + int(s[0])%130
	density := float64(s[1]) / 255
	rng := rand.New(rand.NewPCG(uint64(s[2]), uint64(n)))
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g, s[3:]
}

// FuzzMediumLinkTransitions drives a conflict-graph medium through scripted
// starts, finishes and back-to-back chains from onDone, and checks every
// LinksBusy/LinksIdle set, every BusyFor and every outcome against
// linkModel. Each script
// step takes three bytes: a link, a duration and the delay to the next step.
// A transmission's onDone may chain another transmission, on its own link or
// any idle one, drawn from a generator seeded by the script.
func FuzzMediumLinkTransitions(f *testing.F) {
	for i, cfg := range [][2]byte{
		{0, 0}, {7, 60}, {7, 255}, {63, 30}, {64, 140}, {69, 220}, {126, 12}, {129, 50}, {129, 200},
	} {
		rng := rand.New(rand.NewPCG(uint64(i), 13))
		b := make([]byte, 603)
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		b[0], b[1] = cfg[0], cfg[1]
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		g, steps := fuzzGraph(script)
		n := g.Links()
		eng := sim.NewEngine(1)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = 1
		}
		m, err := New(eng, probs, WithGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		model := newLinkModel(g)
		// Two listeners: each must see every call, with the same set.
		checkers := make([]*transitionChecker, 2)
		for i := range checkers {
			checkers[i] = &transitionChecker{t: t, m: m, model: model, words: (n + 63) / 64}
			m.SubscribeLinks(checkers[i])
		}
		expect := func(kind string, want []int) {
			if len(want) == 0 {
				kind = ""
			}
			for _, c := range checkers {
				c.expect(kind, want)
			}
		}
		settled := func(where string) {
			for _, c := range checkers {
				c.settled(where)
			}
		}
		// The model drops a finishing transmission where the medium does:
		// before the trace hook and onDone run.
		m.SetTrace(func(tx Transmission, outcome Outcome) {
			if want := model.down(tx.Link); outcome != want {
				t.Fatalf("t=%d: link %d finished %v, model expects %v", eng.Now(), tx.Link, outcome, want)
			}
			checkers[0].busyForAgrees("finish before onDone")
		})
		rng := rand.New(rand.NewPCG(uint64(len(script)), 5))
		onAir := make([]bool, n)
		chains := 0
		var start func(link int, d sim.Time)
		start = func(link int, d sim.Time) {
			onAir[link] = true
			expect("busy", model.start(link))
			m.Start(link, d, false, func(Outcome) {
				onAir[link] = false
				// Chain zero, one or two transmissions back to back.
				for chains < 400 && rng.IntN(3) != 0 {
					chains++
					next := link
					if rng.IntN(2) == 0 {
						next = rng.IntN(n)
					}
					if !onAir[next] {
						start(next, sim.Time(1+rng.IntN(40)))
					}
				}
				expect("idle", model.idle(link))
			})
			settled("start")
		}
		// Each step schedules the next from inside itself, so steps
		// interleave with finishes in the engine's (time, seq) order.
		var step func(i int)
		step = func(i int) {
			if i+2 >= len(steps) {
				return
			}
			link, d := int(steps[i])%n, sim.Time(1+steps[i+1]%50)
			if !onAir[link] {
				start(link, d)
			}
			eng.ScheduleAt(eng.Now()+sim.Time(steps[i+2]%60), func() { step(i + 3) })
		}
		eng.ScheduleAt(0, func() { step(0) })
		for eng.Step() {
			settled("after an event")
			checkers[0].busyForAgrees("after an event")
		}
		for j := range model.cnt {
			if m.BusyFor(j) || model.cnt[j] != 0 || model.pending[j] {
				t.Fatalf("link %d still busy after the last transmission", j)
			}
		}
	})
}
