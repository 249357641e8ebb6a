package mac

import (
	"math/rand/v2"
	"slices"
	"testing"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
)

// graphCoordinator is the surface FuzzContentionGraph drives: Contention and
// the scanning reference implement it alike.
type graphCoordinator interface {
	Add(link, counter int, contender Contender)
	Remove(link int)
	Clear()
	Counter(link int) (int, bool)
	Settle()
	Active() int
}

// scriptEvent is one observable step of a scripted run: a fire (val: the
// link started a transmission), a carrier-sense callback (val: busy), a
// Counter read (val: the counter, -1 when not contending), the Active count
// after a script step (link -1), or a livelock (kind 'x').
type scriptEvent struct {
	at   sim.Time
	link int
	kind byte
	val  int
}

// scriptBytes hands out a script's bytes, then zeros once it runs out.
type scriptBytes struct {
	data []byte
	pos  int
}

func (s *scriptBytes) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

func (s *scriptBytes) done() bool { return s.pos >= len(s.data) }

// scriptGraph reads a link count in [2, 130] and a random graph of that size
// from the script. An even density byte draws every pair independently:
// sparse draws leave isolated links and small cliques as components, dense
// ones one component that may be complete. An odd one splits the links into
// interleaved groups that are cliques and bridges a few pairs across groups,
// so clique and non-clique components of many sizes share the graph.
func scriptGraph(s *scriptBytes) *medium.Graph {
	n := 2 + s.next()%129
	d := s.next()
	density := float64(d) / 255
	rng := rand.New(rand.NewPCG(uint64(s.next()), uint64(n)))
	var edges [][2]int
	if d%2 == 0 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < density {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
	} else {
		groups := 1 + rng.IntN(n)
		group := make([]int, n)
		for i := range group {
			group[i] = rng.IntN(groups)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if group[i] == group[j] || rng.Float64() < density*density/float64(n) {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
	}
	g, err := medium.NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// runContentionScript runs a script against a fresh engine, medium and
// coordinator and returns what it observed. Each script step takes four
// bytes: an operation, a link, an argument and the delay to the next step,
// which is scheduled from inside the step so that steps interleave with the
// slot clock both before and after it in the engine's (time, seq) order.
// Fire, transmission lengths and onDone re-Adds draw from a generator seeded
// identically on both sides, so identical coordinators see identical calls.
func runContentionScript(g *medium.Graph, script []byte, mk func(*sim.Engine, *medium.Medium) graphCoordinator) []scriptEvent {
	eng := sim.NewEngine(1)
	n := g.Links()
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 1
	}
	med, err := medium.New(eng, probs, medium.WithGraph(g))
	if err != nil {
		panic(err)
	}
	c := mk(eng, med)
	rng := rand.New(rand.NewPCG(uint64(len(script)), 7))
	contending := make([]bool, n)
	onAir := make([]bool, n)
	readds := 0
	var trace []scriptEvent
	record := func(link int, kind byte, val int) {
		trace = append(trace, scriptEvent{at: eng.Now(), link: link, kind: kind, val: val})
	}
	var add func(link, counter int, hook bool)
	add = func(link, counter int, hook bool) {
		if contending[link] {
			return
		}
		contending[link] = true
		ct := Contender{Fire: func() bool {
			contending[link] = false
			started := !onAir[link] && rng.IntN(4) != 0
			record(link, 'f', boolInt(started))
			if !started && readds < 200 && rng.IntN(3) == 0 {
				// Decline and contend again from inside Fire.
				readds++
				add(link, rng.IntN(6), rng.IntN(2) == 0)
			}
			if started {
				onAir[link] = true
				med.Start(link, sim.Time(1+rng.IntN(40)), false, func(medium.Outcome) {
					onAir[link] = false
					if readds < 200 && rng.IntN(2) == 0 {
						readds++
						add(link, rng.IntN(6), rng.IntN(2) == 0)
					}
				})
			}
			return started
		}}
		if hook {
			ct.ReachedOne = func(busy bool) { record(link, 's', boolInt(busy)) }
		}
		c.Add(link, counter, ct)
	}
	readCounter := func(link int) {
		v, ok := c.Counter(link)
		if !ok {
			v = -1
		}
		record(link, 'c', v)
	}
	// member picks the a-th contending link (cyclically) for Remove and
	// Counter, so large graphs still hit live entries; with none it falls
	// back to link a.
	member := func(a int) int {
		k := 0
		for _, on := range contending {
			k += boolInt(on)
		}
		if k == 0 {
			return a % n
		}
		a %= k
		for link, on := range contending {
			if on {
				if a == 0 {
					return link
				}
				a--
			}
		}
		panic("unreachable")
	}
	s := &scriptBytes{data: script}
	var step func()
	step = func() {
		op, a, arg := s.next(), s.next(), s.next()
		link := a % n
		switch op % 8 {
		case 0, 1, 2:
			add(link, arg%12, op&8 != 0)
			if op&16 != 0 {
				// A read scheduled now, on the new entry's grid, runs
				// before a clock armed later for the same instant.
				eng.ScheduleAt(eng.Now()+sim.Time(1+op>>5)*testSlot, func() { readCounter(link) })
			}
		case 3:
			link = member(a)
			c.Remove(link)
			contending[link] = false
		case 4:
			readCounter(member(a))
		case 5:
			c.Settle()
		case 6:
			if arg%4 == 0 {
				c.Clear()
				clear(contending)
			}
		case 7:
			if !onAir[link] {
				onAir[link] = true
				med.Start(link, sim.Time(1+arg%50), false, func(medium.Outcome) { onAir[link] = false })
			}
		}
		record(-1, 'a', c.Active())
		if delay := s.next() % (3 * testSlot); !s.done() {
			eng.ScheduleAt(eng.Now()+sim.Time(delay), step)
		}
	}
	eng.ScheduleAt(0, step)
	for eng.Step() {
		// A coordinator that re-arms at the same instant forever would
		// hang the run; record the livelock instead.
		if eng.EventsFired() > 1_000_000 {
			record(-1, 'x', 0)
			break
		}
	}
	return trace
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// contentionScriptSeeds are the committed seed scripts: link counts across
// the range (2, 8, 33, 64, 65, 70, 129, 130), sparse to dense graphs, each
// with 1 200 random script bytes.
func contentionScriptSeeds() [][]byte {
	var seeds [][]byte
	for i, cfg := range [][2]byte{
		{68, 40}, {68, 200}, {63, 128}, {62, 20}, {31, 90}, {6, 128}, {0, 0}, {6, 250}, {127, 30}, {128, 160},
	} {
		rng := rand.New(rand.NewPCG(uint64(i), 11))
		b := make([]byte, 1203)
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		b[0], b[1] = cfg[0], cfg[1]
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzContentionGraph drives Contention and the scanning reference
// coordinator with one script, each on its own engine and medium, and
// requires the same trace of fires, carrier-sense callbacks, Counter reads
// and Active counts at the same instants. The reference counts each clique
// component on one grid, like Contention: a join that lands between the
// boundaries of a running clique grid counts from its last boundary, where
// a per-link grid would anchor at the join.
func FuzzContentionGraph(f *testing.F) {
	for _, seed := range contentionScriptSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		s := &scriptBytes{data: script}
		g := scriptGraph(s)
		body := script[s.pos:]
		got := runContentionScript(g, body, func(eng *sim.Engine, med *medium.Medium) graphCoordinator {
			c, err := NewContention(eng, med, testSlot)
			if err != nil {
				t.Fatal(err)
			}
			return c
		})
		want := runContentionScript(g, body, func(eng *sim.Engine, med *medium.Medium) graphCoordinator {
			return newRefGraphContention(eng, med, testSlot)
		})
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%d links: traces diverge at step %d of %d/%d: got %v, reference %v",
				g.Links(), i, len(got), len(want), traceAt(got, i), traceAt(want, i))
		}
	})
}

func traceAt(tr []scriptEvent, i int) any {
	if i < len(tr) {
		return tr[i]
	}
	return "end of trace"
}
