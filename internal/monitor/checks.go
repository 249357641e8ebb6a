package monitor

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// ---------------------------------------------------------------------------
// permutation_valid — σ(k) is a bijection on {1..N} and evolves exactly by
// the committed swaps (Proposition 1's standing assumption; without it the
// Glauber chain of Props. 2–3 is not even defined on the permutation group).
// ---------------------------------------------------------------------------

// PermutationValid checks every "prio" snapshot for bijectivity and checks
// that consecutive snapshots differ exactly by the interval's accepted swaps.
type PermutationValid struct {
	links    int
	prev     []int // σ by link from the last prio event, nil before the first
	prevK    int64
	pending  []swapRec // accepted swaps since the last prio event
	scratch  []int
	expected []int // σ(k-1) with the pending swaps applied
	seen     []bool
	keys     []string // the "l<n>" field names of a prio snapshot
}

type swapRec struct {
	k        int64
	pos      int
	down, up int
}

// NewPermutationValid builds the checker for an N-link network.
func NewPermutationValid(links int) *PermutationValid {
	c := &PermutationValid{
		links:    links,
		scratch:  make([]int, links),
		expected: make([]int, links),
		seen:     make([]bool, links+2),
		keys:     make([]string, links),
	}
	for link := range c.keys {
		c.keys[link] = "l" + strconv.Itoa(link)
	}
	return c
}

// Name implements Checker.
func (c *PermutationValid) Name() string { return "permutation_valid" }

// Observe implements Checker.
func (c *PermutationValid) Observe(ev telemetry.Event, report Reporter) {
	switch ev.Kind {
	case telemetry.EventSwap:
		if ev.Fields["accepted"] == 1 {
			c.pending = append(c.pending, swapRec{
				k:    ev.K,
				pos:  int(ev.Fields["pos"]),
				down: int(ev.Fields["down"]),
				up:   int(ev.Fields["up"]),
			})
		}
	case telemetry.EventPriority:
		c.observePrio(ev, report)
	}
}

func (c *PermutationValid) observePrio(ev telemetry.Event, report Reporter) {
	cur, ok := c.decode(ev, report)
	if !ok {
		c.pending = c.pending[:0]
		c.prev = nil
		return
	}
	if c.prev != nil {
		c.checkEvolution(ev, cur, report)
	}
	if c.prev == nil {
		c.prev = make([]int, c.links)
	}
	copy(c.prev, cur)
	c.prevK = ev.K
	c.pending = c.pending[:0]
}

// decode reads the l<n> fields into a priority vector and validates the
// bijection; it reports at most one violation per snapshot.
func (c *PermutationValid) decode(ev telemetry.Event, report Reporter) ([]int, bool) {
	if len(ev.Fields) != c.links {
		report(Violation{
			Check: c.Name(), K: ev.K, At: ev.At, Link: -1,
			Msg:    fmt.Sprintf("priority snapshot names %d links, want %d", len(ev.Fields), c.links),
			Fields: map[string]float64{"got": float64(len(ev.Fields)), "want": float64(c.links)},
		})
		return nil, false
	}
	for i := range c.seen {
		c.seen[i] = false
	}
	for link := 0; link < c.links; link++ {
		v, ok := ev.Fields[c.keys[link]]
		if !ok {
			report(Violation{
				Check: c.Name(), K: ev.K, At: ev.At, Link: link,
				Msg: fmt.Sprintf("priority snapshot is missing link %d", link),
			})
			return nil, false
		}
		pr := int(v)
		if float64(pr) != v || pr < 1 || pr > c.links {
			report(Violation{
				Check: c.Name(), K: ev.K, At: ev.At, Link: link,
				Msg:    fmt.Sprintf("link %d holds priority %v outside {1..%d}", link, v, c.links),
				Fields: map[string]float64{"priority": v},
			})
			return nil, false
		}
		if c.seen[pr] {
			report(Violation{
				Check: c.Name(), K: ev.K, At: ev.At, Link: link,
				Msg:    fmt.Sprintf("priority %d assigned to two links — σ is not a bijection", pr),
				Fields: map[string]float64{"priority": float64(pr)},
			})
			return nil, false
		}
		c.seen[pr] = true
		c.scratch[link] = pr
	}
	return c.scratch, true
}

// checkEvolution verifies σ(k) = σ(k-1) with the interval's accepted swaps
// applied; any other difference means priorities changed outside Algorithm 2.
func (c *PermutationValid) checkEvolution(ev telemetry.Event, cur []int, report Reporter) {
	expected := c.expected
	copy(expected, c.prev)
	for _, s := range c.pending {
		if s.down < 0 || s.down >= c.links || s.up < 0 || s.up >= c.links {
			report(Violation{
				Check: c.Name(), K: s.k, At: ev.At, Link: -1,
				Msg: fmt.Sprintf("swap at position %d names links (%d, %d) outside [0, %d)",
					s.pos, s.down, s.up, c.links),
			})
			return
		}
		if expected[s.down] != s.pos || expected[s.up] != s.pos+1 {
			report(Violation{
				Check: c.Name(), K: s.k, At: ev.At, Link: s.down,
				Msg: fmt.Sprintf("swap at position %d claims links (%d, %d) but σ held (%d, %d)",
					s.pos, s.down, s.up, expected[s.down], expected[s.up]),
				Fields: map[string]float64{"pos": float64(s.pos)},
			})
			return
		}
		expected[s.down], expected[s.up] = expected[s.up], expected[s.down]
	}
	for link := 0; link < c.links; link++ {
		if cur[link] != expected[link] {
			report(Violation{
				Check: c.Name(), K: ev.K, At: ev.At, Link: link,
				Msg: fmt.Sprintf("link %d moved from priority %d to %d without a committed swap",
					link, expected[link], cur[link]),
				Fields: map[string]float64{"expected": float64(expected[link]), "got": float64(cur[link])},
			})
			return
		}
	}
}

// ---------------------------------------------------------------------------
// single_adjacent_swap — Algorithm 2 draws one adjacent pair (C, C+1) per
// interval, uniformly over {1..N-1}; Remark 6 allows m pairwise non-adjacent
// pairs. The draw-position distribution is tracked by a chi-square drift
// gauge rather than a hard violation (uniformity is statistical).
// ---------------------------------------------------------------------------

// SingleAdjacentSwap checks the per-interval swap draws: count, range,
// distinctness and non-adjacency, plus a uniformity drift gauge.
type SingleAdjacentSwap struct {
	links, pairs int
	curK         int64
	draws        []int
	sorted       []int // flush's scratch copy of draws
	haveK        bool

	counts []int64
	total  int64
	sumSq  float64
	chisq  *telemetry.Gauge
}

// NewSingleAdjacentSwap builds the checker; pairs is the Remark-6 allowance
// (1 for plain Algorithm 2). The registry, when non-nil, receives the
// rtmac_monitor_swap_pos_chisq gauge.
func NewSingleAdjacentSwap(links, pairs int, reg *telemetry.Registry) *SingleAdjacentSwap {
	c := &SingleAdjacentSwap{links: links, pairs: pairs, counts: make([]int64, links)}
	if reg != nil {
		c.chisq = reg.Gauge("rtmac_monitor_swap_pos_chisq",
			"chi-square statistic of the swap-position draws against uniform over {1..N-1}; hovers near N-2 under Algorithm 2")
	}
	return c
}

// Name implements Checker.
func (c *SingleAdjacentSwap) Name() string { return "single_adjacent_swap" }

// Observe implements Checker.
func (c *SingleAdjacentSwap) Observe(ev telemetry.Event, report Reporter) {
	switch ev.Kind {
	case telemetry.EventSwap:
		if c.haveK && ev.K != c.curK {
			c.flush(ev, report)
		}
		c.haveK, c.curK = true, ev.K
		pos := int(ev.Fields["pos"])
		if pos < 1 || pos > c.links-1 {
			report(Violation{
				Check: c.Name(), K: ev.K, At: ev.At, Link: -1,
				Msg:    fmt.Sprintf("swap position %d outside {1..%d}", pos, c.links-1),
				Fields: map[string]float64{"pos": float64(pos)},
			})
			return
		}
		c.draws = append(c.draws, pos)
		c.observeDraw(pos)
	case telemetry.EventInterval:
		// The interval event follows the interval's swap events, so the
		// interval's draw set is complete here.
		if c.haveK && ev.K >= c.curK {
			c.flush(ev, report)
		}
	}
}

// flush finalizes one interval's draw set; it reports at most one violation
// per flaw kind per interval.
func (c *SingleAdjacentSwap) flush(ev telemetry.Event, report Reporter) {
	defer func() { c.draws = c.draws[:0]; c.haveK = false }()
	if len(c.draws) == 0 {
		return
	}
	if len(c.draws) > c.pairs {
		report(Violation{
			Check: c.Name(), K: c.curK, At: ev.At, Link: -1,
			Msg: fmt.Sprintf("%d swap draws in one interval, Algorithm 2 permits %d",
				len(c.draws), c.pairs),
			Fields: map[string]float64{"draws": float64(len(c.draws)), "allowed": float64(c.pairs)},
		})
		return
	}
	c.sorted = append(c.sorted[:0], c.draws...)
	sorted := c.sorted
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i]-sorted[i-1] < 2 {
			report(Violation{
				Check: c.Name(), K: c.curK, At: ev.At, Link: -1,
				Msg: fmt.Sprintf("swap positions %d and %d overlap in links — pairs must be non-adjacent",
					sorted[i-1], sorted[i]),
				Fields: map[string]float64{"a": float64(sorted[i-1]), "b": float64(sorted[i])},
			})
			return
		}
	}
}

// observeDraw feeds the chi-square drift gauge with an O(1) incremental
// update: chisq = (N-1)·Σc²/T − T for draw counts c and total T.
func (c *SingleAdjacentSwap) observeDraw(pos int) {
	old := c.counts[pos-1]
	c.counts[pos-1] = old + 1
	c.sumSq += float64(2*old + 1)
	c.total++
	if c.chisq != nil && c.links > 1 {
		cells := float64(c.links - 1)
		c.chisq.Set(cells*c.sumSq/float64(c.total) - float64(c.total))
	}
}

// ---------------------------------------------------------------------------
// collision_free — the DP family (and the deterministic schedules) must
// never collide: Eq. 6's backoff assignment is injective, so any Collided
// outcome under these protocols is a protocol-correctness bug.
// ---------------------------------------------------------------------------

// CollisionFree reports every transmission that resolved as Collided. A
// single physical collision involves at least two transmissions and hence
// reports once per destroyed transmission.
type CollisionFree struct{}

// NewCollisionFree builds the checker.
func NewCollisionFree() *CollisionFree { return &CollisionFree{} }

// Name implements Checker.
func (c *CollisionFree) Name() string { return "collision_free" }

// Observe implements Checker.
func (c *CollisionFree) Observe(ev telemetry.Event, report Reporter) {
	if ev.Kind != telemetry.EventTx {
		return
	}
	if ev.Fields["outcome"] == outcomeCollided {
		report(Violation{
			Check: c.Name(), K: ev.K, At: ev.At, Link: ev.Link,
			Msg: fmt.Sprintf("link %d collided under a collision-free protocol", ev.Link),
			Fields: map[string]float64{
				"dur":   ev.Fields["dur"],
				"empty": ev.Fields["empty"],
			},
		})
	}
}

// outcomeCollided mirrors medium.Collided without importing the package (the
// event schema, not the Go type, is the contract here — offline audits see
// only the stream).
const outcomeCollided = 2

// ---------------------------------------------------------------------------
// debt_sane — the ledger's Eq. 1 bookkeeping: ΣΔd(k) = Σq − Σserved(k) with
// a constant Σq. The checker infers Σq from the stream's first interval and
// flags any later interval whose debt update disagrees with its service
// count. A windowed-growth gauge surfaces debt saturation (the FCSMA
// pathology: debts growing without bound while the protocol thrashes).
// ---------------------------------------------------------------------------

// DebtSane cross-checks "debt" events against "interval" events.
type DebtSane struct {
	links  int
	window int

	inferredQ float64
	haveQ     bool
	lastSum   float64
	lastK     int64
	haveLast  bool

	pendSum  float64
	pendK    int64
	havePend bool

	ring   []float64
	ringAt int
	growth *telemetry.Gauge
}

// debtWindow is the saturation-gauge horizon in intervals.
const debtWindow = 64

// NewDebtSane builds the checker. The registry, when non-nil, receives the
// rtmac_monitor_debt_window_growth gauge (packets of net debt growth per
// interval over the last 64 intervals; persistently positive means the
// network is saturating).
func NewDebtSane(links int, reg *telemetry.Registry) *DebtSane {
	c := &DebtSane{links: links, window: debtWindow}
	if reg != nil {
		c.growth = reg.Gauge("rtmac_monitor_debt_window_growth",
			"net total-debt growth per interval over the last 64 intervals; persistently positive indicates saturation")
	}
	return c
}

// Name implements Checker.
func (c *DebtSane) Name() string { return "debt_sane" }

// Observe implements Checker.
func (c *DebtSane) Observe(ev telemetry.Event, report Reporter) {
	switch ev.Kind {
	case telemetry.EventDebt:
		// The debt event precedes its interval event in the stream order.
		c.pendSum = ev.Fields["mean"] * float64(c.links)
		c.pendK = ev.K
		c.havePend = true
	case telemetry.EventInterval:
		if !c.havePend || c.pendK != ev.K {
			return
		}
		c.havePend = false
		c.settle(ev, report)
	}
}

func (c *DebtSane) settle(ev telemetry.Event, report Reporter) {
	served := ev.Fields["served"]
	sum := c.pendSum
	defer func() {
		c.lastSum, c.lastK, c.haveLast = sum, ev.K, true
		c.observeGrowth(sum)
	}()
	if !c.haveQ {
		// Σq is not in the stream; infer it from the first usable interval:
		// d(0) starts at zero, and consecutive intervals give
		// Σq = Σd(k) − Σd(k−1) + Σserved(k).
		switch {
		case ev.K == 0:
			c.inferredQ = sum + served
			c.haveQ = true
		case c.haveLast && c.lastK == ev.K-1:
			c.inferredQ = sum - c.lastSum + served
			c.haveQ = true
		}
		return
	}
	if !c.haveLast || c.lastK != ev.K-1 {
		return // gap in the stream (sampling/truncation); re-anchor silently
	}
	expected := c.lastSum + c.inferredQ - served
	eps := 1e-6 * (1 + math.Abs(expected) + served)
	if math.Abs(sum-expected) > eps {
		report(Violation{
			Check: c.Name(), K: ev.K, At: ev.At, Link: -1,
			Msg: fmt.Sprintf("total debt moved to %.6f but Eq. 1 predicts %.6f from %.0f deliveries",
				sum, expected, served),
			Fields: map[string]float64{"got": sum, "expected": expected, "served": served},
		})
	}
}

func (c *DebtSane) observeGrowth(sum float64) {
	if c.growth == nil {
		return
	}
	if len(c.ring) < c.window {
		c.ring = append(c.ring, sum)
		if n := len(c.ring); n > 1 {
			c.growth.Set((sum - c.ring[0]) / float64(n-1))
		}
		return
	}
	oldest := c.ring[c.ringAt]
	c.ring[c.ringAt] = sum
	c.ringAt = (c.ringAt + 1) % c.window
	c.growth.Set((sum - oldest) / float64(c.window))
}

// ---------------------------------------------------------------------------
// airtime_conserved — every transmission fits inside its interval, and the
// channel-time ledger closes: data + empty + collided airtime plus idle time
// tiles each neighborhood, which in event terms means no two *conflicting*
// non-collided transmissions overlap and no span crosses a deadline boundary.
// On the fully-interfering channel (nil graph) every pair conflicts and this
// reduces to the classic no-concurrent-transmissions check.
// ---------------------------------------------------------------------------

// AirtimeConserved replays each interval's transmission spans.
type AirtimeConserved struct {
	interval sim.Time
	graph    *medium.Graph // nil = fully interfering
	spans    map[int64][]txSpan
	free     [][]txSpan // emptied span slices of settled intervals, for reuse
}

type txSpan struct {
	start, end sim.Time
	link       int
	collided   bool
}

// compareSpans orders spans by start, then by link.
func compareSpans(a, b txSpan) int {
	if c := cmp.Compare(a.start, b.start); c != 0 {
		return c
	}
	return cmp.Compare(a.link, b.link)
}

// NewAirtimeConserved builds the checker for interval length T. graph is the
// channel's conflict graph; nil (or a complete graph) means every pair of
// links interferes.
func NewAirtimeConserved(interval sim.Time, graph *medium.Graph) *AirtimeConserved {
	return &AirtimeConserved{interval: interval, graph: graph, spans: make(map[int64][]txSpan)}
}

// conflicts reports whether concurrent spans on links a and b violate the
// interference model.
func (c *AirtimeConserved) conflicts(a, b int) bool {
	return c.graph == nil || c.graph.Conflicts(a, b)
}

// Name implements Checker.
func (c *AirtimeConserved) Name() string { return "airtime_conserved" }

// Observe implements Checker.
func (c *AirtimeConserved) Observe(ev telemetry.Event, report Reporter) {
	switch ev.Kind {
	case telemetry.EventTx:
		dur := sim.Time(ev.Fields["dur"])
		spans, ok := c.spans[ev.K]
		if !ok && len(c.free) > 0 {
			spans = c.free[len(c.free)-1]
			c.free = c.free[:len(c.free)-1]
		}
		c.spans[ev.K] = append(spans, txSpan{
			start:    ev.At - dur,
			end:      ev.At,
			link:     ev.Link,
			collided: ev.Fields["outcome"] == outcomeCollided,
		})
	case telemetry.EventInterval:
		c.finish(ev, report)
		// Bound memory even when interval events are missing for some K
		// (sampled or truncated streams): everything at or before the
		// finished interval is settled.
		for k, spans := range c.spans {
			if k <= ev.K {
				c.free = append(c.free, spans[:0])
				delete(c.spans, k)
			}
		}
	}
}

// finish checks one completed interval's spans; it reports at most one
// boundary violation and one overlap violation per interval.
func (c *AirtimeConserved) finish(ev telemetry.Event, report Reporter) {
	spans := c.spans[ev.K]
	if len(spans) == 0 {
		return
	}
	lo := sim.Time(ev.K) * c.interval
	hi := lo + c.interval
	for _, s := range spans {
		if s.start < lo || s.end > hi || s.end <= s.start {
			report(Violation{
				Check: c.Name(), K: ev.K, At: s.end, Link: s.link,
				Msg: fmt.Sprintf("transmission [%v, %v] leaves interval %d's span [%v, %v]",
					s.start, s.end, ev.K, lo, hi),
				Fields: map[string]float64{"start": float64(s.start), "end": float64(s.end)},
			})
			break
		}
	}
	slices.SortFunc(spans, compareSpans)
	// Pairwise overlap scan: with a conflict graph, non-conflicting spans
	// legitimately overlap (spatial reuse), so a single furthest-reaching
	// open span no longer summarizes the channel — every overlapping pair is
	// tested against the interference model. Spans are sorted by start, so
	// the inner walk stops at the first span starting after span i ends;
	// per-interval span counts are bounded by the slot budget, keeping the
	// quadratic worst case small.
	for i := 0; i < len(spans); i++ {
		a := spans[i]
		for j := i + 1; j < len(spans); j++ {
			b := spans[j]
			if b.start >= a.end {
				break
			}
			if !c.conflicts(a.link, b.link) || (a.collided && b.collided) {
				continue
			}
			report(Violation{
				Check: c.Name(), K: ev.K, At: b.start, Link: b.link,
				Msg: fmt.Sprintf("conflicting links %d and %d overlap on the channel without a collision outcome — airtime double-counted",
					a.link, b.link),
				Fields: map[string]float64{"a": float64(a.link), "b": float64(b.link)},
			})
			return
		}
	}
}
