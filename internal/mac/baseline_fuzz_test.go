package mac_test

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"rtmac/internal/arrival"
	"rtmac/internal/debt"
	"rtmac/internal/mac"
	"rtmac/internal/mac/fcsma"
	"rtmac/internal/mac/framecsma"
	"rtmac/internal/mac/ldf"
	"rtmac/internal/medium"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
)

// The reference baselines below scan every link on every transmission, as
// the protocols did before they kept per-interval backlog lists and
// drained-prefix cursors. FuzzBaselineScans holds the protocols to them.

// refFCSMA recomputes every backlogged link's window and walks all links on
// every contention round.
type refFCSMA struct {
	cfg        fcsma.Config
	subscribed bool
	ctx        *mac.Context
	roundTimer *sim.Timer
	rng        *sim.RNG
	winners    []int
}

func (p *refFCSMA) Name() string { return "ref-fcsma" }

func (p *refFCSMA) BeginInterval(ctx *mac.Context) {
	if !p.subscribed {
		ctx.Med.SubscribeLinks(p)
		p.subscribed = true
		p.rng = ctx.Eng.RNG("fcsma")
	}
	p.ctx = ctx
	p.startRound()
}

func (p *refFCSMA) EndInterval(ctx *mac.Context) {
	if p.roundTimer != nil {
		ctx.Eng.Cancel(p.roundTimer)
		p.roundTimer = nil
	}
	p.ctx = nil
}

func (p *refFCSMA) LinksBusy([]uint64, sim.Time) {}

func (p *refFCSMA) LinksIdle([]uint64, sim.Time) {
	if p.ctx != nil && !p.ctx.Med.Busy() {
		p.startRound()
	}
}

func (p *refFCSMA) startRound() {
	ctx := p.ctx
	if p.roundTimer != nil || !ctx.FitsData() {
		return
	}
	minDraw := -1
	p.winners = p.winners[:0]
	for link := 0; link < ctx.Links(); link++ {
		if ctx.Pending(link) == 0 {
			continue
		}
		draw := p.rng.IntN(p.cfg.Window(ctx.Ledger.PositiveDebt(link)))
		ctx.NoteRound(link, draw)
		switch {
		case minDraw == -1 || draw < minDraw:
			minDraw = draw
			p.winners = append(p.winners[:0], link)
		case draw == minDraw:
			p.winners = append(p.winners, link)
		}
	}
	if minDraw == -1 {
		return
	}
	if minDraw == 0 {
		p.fireRound()
		return
	}
	p.roundTimer = ctx.Eng.After(sim.Time(minDraw)*ctx.Profile.Slot, func() {
		p.roundTimer = nil
		p.fireRound()
	})
}

func (p *refFCSMA) fireRound() {
	for _, link := range p.winners {
		p.ctx.TransmitData(link, nil)
	}
}

// refLDF restarts its greedy walk from the top of the debt order after
// every transmission.
type refLDF struct {
	f     debt.InfluenceFunc
	order []int
	w     []float64
	ctx   *mac.Context
}

func (s *refLDF) Name() string { return "ref-ldf" }

func (s *refLDF) BeginInterval(ctx *mac.Context) {
	n := ctx.Links()
	s.ctx = ctx
	s.order, s.w = make([]int, n), make([]float64, n)
	ctx.DebtOrder(s.f, s.order, s.w)
	s.serveSet()
}

func (s *refLDF) serveSet() {
	ctx := s.ctx
	if !ctx.FitsData() {
		return
	}
	for _, link := range s.order {
		if ctx.Pending(link) > 0 && !ctx.Med.BusyFor(link) {
			ctx.TransmitData(link, func(bool) { s.serveSet() })
			if ctx.Med.AllBusy() {
				return
			}
		}
	}
}

func (s *refLDF) EndInterval(*mac.Context) {}

// refFrameCSMA walks its slot allocation from the top of the debt order for
// every slot.
type refFrameCSMA struct {
	cfg          framecsma.Config
	alloc, order []int
	timer        *sim.Timer
	ctx          *mac.Context
}

func (p *refFrameCSMA) Name() string { return "ref-frame-csma" }

func (p *refFrameCSMA) BeginInterval(ctx *mac.Context) {
	n := ctx.Links()
	p.ctx = ctx
	p.alloc, p.order = make([]int, n), make([]int, n)
	ctx.DebtOrder(debt.PaperLog(), p.order, make([]float64, n))
	controlTime := sim.Time(n) * p.cfg.ControlSlot
	budget := max(int((ctx.Remaining()-controlTime)/ctx.Profile.DataAirtime), 0)
	for _, link := range p.order {
		if budget == 0 || ctx.Pending(link) == 0 {
			continue
		}
		need := min(int(math.Ceil(float64(ctx.Pending(link))/ctx.Med.SuccessProb(link))), budget)
		p.alloc[link] = need
		budget -= need
	}
	if controlTime >= ctx.Remaining() {
		return
	}
	p.timer = ctx.Eng.After(controlTime, p.onTimer)
}

func (p *refFrameCSMA) onTimer() {
	p.timer = nil
	p.serveNext()
}

func (p *refFrameCSMA) serveNext() {
	ctx := p.ctx
	for _, link := range p.order {
		if p.alloc[link] == 0 {
			continue
		}
		p.alloc[link]--
		if ctx.Pending(link) > 0 {
			ctx.TransmitData(link, func(bool) { p.serveNext() })
			return
		}
		if ctx.Remaining() < ctx.Profile.DataAirtime {
			return
		}
		p.timer = ctx.Eng.After(ctx.Profile.DataAirtime, p.onTimer)
		return
	}
}

func (p *refFrameCSMA) EndInterval(ctx *mac.Context) {
	if p.timer != nil {
		ctx.Eng.Cancel(p.timer)
		p.timer = nil
	}
}

// slotLog records every Tx and Round record a network hands its probes.
type slotLog struct {
	mac.NopProbe
	recs [][5]int64
}

func (l *slotLog) Tx(k int64, tx medium.Transmission, o medium.Outcome) {
	l.recs = append(l.recs, [5]int64{k, int64(tx.Link), int64(tx.Start), int64(tx.End), int64(o)})
}

func (l *slotLog) Round(k int64, at sim.Time, link, slots int) {
	l.recs = append(l.recs, [5]int64{k, -1, int64(at), int64(link), int64(slots)})
}

func (*slotLog) Fire(int64, sim.Time, int, bool)  {}
func (*slotLog) Sense(int64, sim.Time, int, bool) {}

// baselineScenario is one fuzzed network: link count, timing profile,
// per-link arrival processes, channel reliabilities and requirements (which
// set how fast debts build), an optional random conflict graph, and the
// seed.
type baselineScenario struct {
	seed      uint64
	profile   phy.Profile
	probs     []float64
	required  []float64
	procs     []arrival.Process
	conflicts *medium.Graph
}

func newBaselineScenario(t *testing.T, seed uint64, links, profile, traffic, graph uint8) baselineScenario {
	n := 1 + int(links)%20
	rng := rand.New(rand.NewPCG(seed, uint64(traffic)))
	sc := baselineScenario{
		seed:     seed,
		probs:    make([]float64, n),
		required: make([]float64, n),
		procs:    make([]arrival.Process, n),
	}
	switch profile % 3 {
	case 0:
		sc.profile = phy.Control()
	case 1:
		sc.profile = phy.Video()
	default:
		// Short intervals cut rounds off at the deadline.
		sc.profile = phy.Profile{Name: "short", Slot: 1, DataAirtime: 10, EmptyAirtime: 2, Interval: sim.Time(30 + rng.IntN(300))}
	}
	for i := range sc.procs {
		var (
			proc arrival.Process
			err  error
		)
		switch (int(traffic) + i) % 3 {
		case 0:
			proc, err = arrival.NewBernoulli(0.1 + 0.9*rng.Float64())
		case 1:
			proc, err = arrival.PaperVideo(0.1 + 0.9*rng.Float64())
		default:
			proc, err = arrival.NewBinomial(1+rng.IntN(8), rng.Float64())
		}
		if err != nil {
			t.Fatal(err)
		}
		sc.procs[i] = proc
		sc.probs[i] = 0.2 + 0.8*rng.Float64()
		// Requirements up to 1.5 times the mean build debts of every size.
		sc.required[i] = 1.5 * rng.Float64() * proc.Mean()
	}
	if graph%2 == 1 && n > 1 {
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.IntN(256) < int(graph) {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g, err := medium.NewGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		sc.conflicts = g
	}
	return sc
}

// run simulates intervals of the scenario under prot and returns its Tx and
// Round records.
func (sc baselineScenario) run(t *testing.T, prot mac.Protocol, intervals int) [][5]int64 {
	av, err := arrival.NewIndependent(sc.procs...)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := mac.NewNetwork(mac.NetworkConfig{
		Seed:        sc.seed,
		Profile:     sc.profile,
		SuccessProb: sc.probs,
		Conflicts:   sc.conflicts,
		Arrivals:    av,
		Required:    sc.required,
		Protocol:    prot,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := &slotLog{}
	nw.AddProbe(log)
	if err := nw.Run(intervals); err != nil {
		t.Fatal(err)
	}
	return log.recs
}

// FuzzBaselineScans runs FCSMA, LDF, ELDF and frame-CSMA against the
// reference protocols that scan every link on every transmission, on random
// link counts, profiles, arrivals, requirements (and so debts), conflict
// graphs and seeds. The Tx and Round record sequences must be identical:
// skipping drained links never changes a draw, a transmission or its order.
func FuzzBaselineScans(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(19), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(12), uint8(2), uint8(2), uint8(101))
	f.Add(uint64(11), uint8(5), uint8(1), uint8(4), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, links, profile, traffic, graph uint8) {
		sc := newBaselineScenario(t, seed, links, profile, traffic, graph)
		const intervals = 40
		fc, err := fcsma.New(fcsma.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fr, err := framecsma.New(framecsma.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name     string
			got, ref mac.Protocol
		}{
			{"fcsma", fc, &refFCSMA{cfg: fcsma.DefaultConfig()}},
			{"ldf", ldf.NewLDF(), &refLDF{f: debt.Identity()}},
			{"eldf", ldf.New(debt.PaperLog()), &refLDF{f: debt.PaperLog()}},
			{"framecsma", fr, &refFrameCSMA{cfg: framecsma.DefaultConfig()}},
		}
		for _, tc := range cases {
			got, want := sc.run(t, tc.got, intervals), sc.run(t, tc.ref, intervals)
			if !reflect.DeepEqual(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("%s: %d records, reference %d; first difference at record %d",
					tc.name, len(got), len(want), i)
			}
		}
	})
}
