package monitor

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// ---------------------------------------------------------------------------
// permutation_valid — σ(k) is a bijection on {1..N} and evolves exactly by
// the committed swaps (Proposition 1's standing assumption; without it the
// Glauber chain of Props. 2–3 is not even defined on the permutation group).
// ---------------------------------------------------------------------------

// permutationValid checks every σ snapshot for bijectivity and checks that
// consecutive snapshots differ exactly by the interval's accepted swaps.
type permutationValid struct {
	links    int
	prev     []int     // σ by link from the last snapshot, nil before the first
	pending  []swapRec // accepted swaps since the last snapshot
	expected []int     // σ(k-1) with the pending swaps applied
	seen     []bool
	decoded  []int    // decode's scratch snapshot
	keys     []string // the "l<n>" field names of a prio event
}

type swapRec struct {
	k        int64
	pos      int
	down, up int
}

func newPermutationValid(links int) *permutationValid {
	c := &permutationValid{
		links:    links,
		expected: make([]int, links),
		seen:     make([]bool, links+2),
		decoded:  make([]int, links),
		keys:     make([]string, links),
	}
	for link := range c.keys {
		c.keys[link] = telemetry.PrioName(link)
	}
	return c
}

func (c *permutationValid) swap(k int64, pos, down, up int, accepted bool) {
	if accepted {
		c.pending = append(c.pending, swapRec{k: k, pos: pos, down: down, up: up})
	}
}

// prio checks the snapshot σ(k), prio[link] being link's priority index.
func (c *permutationValid) prio(k int64, at sim.Time, prio []int, report Reporter) {
	if !c.valid(k, at, prio, report) {
		c.reset()
		return
	}
	if c.prev != nil {
		c.checkEvolution(k, at, prio, report)
	} else {
		c.prev = make([]int, c.links)
	}
	copy(c.prev, prio)
	c.pending = c.pending[:0]
}

// reset forgets σ after an unusable snapshot: the next one starts afresh.
func (c *permutationValid) reset() {
	c.pending = c.pending[:0]
	c.prev = nil
}

// valid checks that the snapshot is a bijection on {1..N}; it reports at
// most one violation per snapshot.
func (c *permutationValid) valid(k int64, at sim.Time, prio []int, report Reporter) bool {
	if len(prio) != c.links {
		c.wrongSize(k, at, len(prio), report)
		return false
	}
	return c.bijective(k, at, prio, report)
}

// bijective checks that the priorities of links 0..len(prio)-1 lie in
// {1..N} and are pairwise distinct.
func (c *permutationValid) bijective(k int64, at sim.Time, prio []int, report Reporter) bool {
	clear(c.seen)
	for link, pr := range prio {
		if pr < 1 || pr > c.links {
			c.outOfRange(k, at, link, float64(pr), report)
			return false
		}
		if c.seen[pr] {
			report(Violation{
				Check: checkPermutation, K: k, At: at, Link: link,
				Msg:    fmt.Sprintf("priority %d assigned to two links — σ is not a bijection", pr),
				Fields: map[string]float64{"priority": float64(pr)},
			})
			return false
		}
		c.seen[pr] = true
	}
	return true
}

// decode reads a prio event's l<n> fields into a snapshot. A snapshot that
// names the wrong number of links, misses one or holds a non-integral
// priority is reported here, flaws in lower links first, and yields false.
func (c *permutationValid) decode(ev telemetry.Event, report Reporter) ([]int, bool) {
	if n := ev.Payload.Len(); n != c.links {
		c.wrongSize(ev.K, ev.At, n, report)
		return nil, false
	}
	for link, key := range c.keys {
		v, ok := ev.Payload.Lookup(key)
		if ok && float64(int(v)) == v {
			c.decoded[link] = int(v)
			continue
		}
		if !c.bijective(ev.K, ev.At, c.decoded[:link], report) {
			return nil, false
		}
		if ok {
			c.outOfRange(ev.K, ev.At, link, v, report)
		} else {
			report(Violation{
				Check: checkPermutation, K: ev.K, At: ev.At, Link: link,
				Msg: fmt.Sprintf("priority snapshot is missing link %d", link),
			})
		}
		return nil, false
	}
	return c.decoded, true
}

func (c *permutationValid) wrongSize(k int64, at sim.Time, n int, report Reporter) {
	report(Violation{
		Check: checkPermutation, K: k, At: at, Link: -1,
		Msg:    fmt.Sprintf("priority snapshot names %d links, want %d", n, c.links),
		Fields: map[string]float64{"got": float64(n), "want": float64(c.links)},
	})
}

func (c *permutationValid) outOfRange(k int64, at sim.Time, link int, v float64, report Reporter) {
	report(Violation{
		Check: checkPermutation, K: k, At: at, Link: link,
		Msg:    fmt.Sprintf("link %d holds priority %v outside {1..%d}", link, v, c.links),
		Fields: map[string]float64{"priority": v},
	})
}

// checkEvolution verifies σ(k) = σ(k-1) with the interval's accepted swaps
// applied; any other difference means priorities changed outside Algorithm 2.
func (c *permutationValid) checkEvolution(k int64, at sim.Time, cur []int, report Reporter) {
	expected := c.expected
	copy(expected, c.prev)
	for _, s := range c.pending {
		if s.down < 0 || s.down >= c.links || s.up < 0 || s.up >= c.links {
			report(Violation{
				Check: checkPermutation, K: s.k, At: at, Link: -1,
				Msg: fmt.Sprintf("swap at position %d names links (%d, %d) outside [0, %d)",
					s.pos, s.down, s.up, c.links),
			})
			return
		}
		if expected[s.down] != s.pos || expected[s.up] != s.pos+1 {
			report(Violation{
				Check: checkPermutation, K: s.k, At: at, Link: s.down,
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
				Check: checkPermutation, K: k, At: at, Link: link,
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

// singleAdjacentSwap checks the per-interval swap draws: count, range,
// distinctness and non-adjacency, plus a uniformity drift gauge.
type singleAdjacentSwap struct {
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

// newSingleAdjacentSwap builds the checker; pairs is the Remark-6 allowance
// (1 for plain Algorithm 2). The registry, when non-nil, receives the
// rtmac_monitor_swap_pos_chisq gauge.
func newSingleAdjacentSwap(links, pairs int, reg *telemetry.Registry) *singleAdjacentSwap {
	c := &singleAdjacentSwap{links: links, pairs: pairs, counts: make([]int64, links)}
	if reg != nil {
		c.chisq = reg.Gauge("rtmac_monitor_swap_pos_chisq",
			"chi-square statistic of the swap-position draws against uniform over {1..N-1}; hovers near N-2 under Algorithm 2")
	}
	return c
}

func (c *singleAdjacentSwap) swap(k int64, at sim.Time, pos int, report Reporter) {
	if c.haveK && k != c.curK {
		c.flush(at, report)
	}
	c.haveK, c.curK = true, k
	if pos < 1 || pos > c.links-1 {
		report(Violation{
			Check: checkSwap, K: k, At: at, Link: -1,
			Msg:    fmt.Sprintf("swap position %d outside {1..%d}", pos, c.links-1),
			Fields: map[string]float64{"pos": float64(pos)},
		})
		return
	}
	c.draws = append(c.draws, pos)
	c.observeDraw(pos)
}

// endInterval closes interval k: its swap records precede the interval close,
// so the interval's draw set is complete here.
func (c *singleAdjacentSwap) endInterval(k int64, at sim.Time, report Reporter) {
	if c.haveK && k >= c.curK {
		c.flush(at, report)
	}
}

// flush finalizes one interval's draw set; it reports at most one violation
// per flaw kind per interval.
func (c *singleAdjacentSwap) flush(at sim.Time, report Reporter) {
	defer func() { c.draws = c.draws[:0]; c.haveK = false }()
	if len(c.draws) == 0 {
		return
	}
	if len(c.draws) > c.pairs {
		report(Violation{
			Check: checkSwap, K: c.curK, At: at, Link: -1,
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
				Check: checkSwap, K: c.curK, At: at, Link: -1,
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
func (c *singleAdjacentSwap) observeDraw(pos int) {
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

// collided reports a transmission that resolved as Collided under a
// collision-free protocol. A single physical collision involves at least two
// transmissions and hence reports once per destroyed transmission.
func collided(k int64, link int, start, end sim.Time, empty bool, report Reporter) {
	report(Violation{
		Check: checkCollision, K: k, At: end, Link: link,
		Msg: fmt.Sprintf("link %d collided under a collision-free protocol", link),
		Fields: map[string]float64{
			"dur":   float64(end - start),
			"empty": b2f(empty),
		},
	})
}

// outcomeCollided is medium.Collided's code in the outcome field of a tx
// event, the form recorded streams carry.
const outcomeCollided = 2

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// debt_sane — the ledger's Eq. 1 bookkeeping: ΣΔd(k) = Σq − Σserved(k) with
// a constant Σq. The checker infers Σq from the stream's first interval and
// flags any later interval whose debt update disagrees with its service
// count. A windowed-growth gauge surfaces debt saturation (the FCSMA
// pathology: debts growing without bound while the protocol thrashes).
// ---------------------------------------------------------------------------

// debtSane cross-checks each interval's debt record against its service
// count.
type debtSane struct {
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

// newDebtSane builds the checker. The registry, when non-nil, receives the
// rtmac_monitor_debt_window_growth gauge (packets of net debt growth per
// interval over the last 64 intervals; persistently positive means the
// network is saturating).
func newDebtSane(links int, reg *telemetry.Registry) *debtSane {
	c := &debtSane{links: links, window: debtWindow}
	if reg != nil {
		c.growth = reg.Gauge("rtmac_monitor_debt_window_growth",
			"net total-debt growth per interval over the last 64 intervals; persistently positive indicates saturation")
	}
	return c
}

// debt records interval k's mean debt; the debt record precedes its
// interval close.
func (c *debtSane) debt(k int64, mean float64) {
	c.pendSum = mean * float64(c.links)
	c.pendK = k
	c.havePend = true
}

// endInterval settles interval k's pending debt record against its served
// count.
func (c *debtSane) endInterval(k int64, at sim.Time, served float64, report Reporter) {
	if !c.havePend || c.pendK != k {
		return
	}
	c.havePend = false
	sum := c.pendSum
	defer func() {
		c.lastSum, c.lastK, c.haveLast = sum, k, true
		c.observeGrowth(sum)
	}()
	if !c.haveQ {
		// Σq is not in the stream; infer it from the first usable interval:
		// d(0) starts at zero, and consecutive intervals give
		// Σq = Σd(k) − Σd(k−1) + Σserved(k).
		switch {
		case k == 0:
			c.inferredQ = sum + served
			c.haveQ = true
		case c.haveLast && c.lastK == k-1:
			c.inferredQ = sum - c.lastSum + served
			c.haveQ = true
		}
		return
	}
	if !c.haveLast || c.lastK != k-1 {
		return // gap in the stream (sampling/truncation); re-anchor silently
	}
	expected := c.lastSum + c.inferredQ - served
	eps := 1e-6 * (1 + math.Abs(expected) + served)
	if math.Abs(sum-expected) > eps {
		report(Violation{
			Check: checkDebt, K: k, At: at, Link: -1,
			Msg: fmt.Sprintf("total debt moved to %.6f but Eq. 1 predicts %.6f from %.0f deliveries",
				sum, expected, served),
			Fields: map[string]float64{"got": sum, "expected": expected, "served": served},
		})
	}
}

func (c *debtSane) observeGrowth(sum float64) {
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

// airtimeConserved replays each interval's transmission spans.
type airtimeConserved struct {
	interval sim.Time
	graph    *medium.Graph // nil = fully interfering
	// open holds the spans of interval openK, the one the latest tx event
	// belonged to; spans holds every other unsettled interval's. Events
	// arrive in interval order, so the map is touched only when K changes.
	open    []txSpan
	openK   int64
	hasOpen bool
	spans   map[int64][]txSpan
	free    [][]txSpan // emptied span slices of settled intervals, for reuse
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

// newAirtimeConserved builds the checker for interval length T. graph is the
// channel's conflict graph; nil (or a complete graph) means every pair of
// links interferes.
func newAirtimeConserved(interval sim.Time, graph *medium.Graph) *airtimeConserved {
	return &airtimeConserved{interval: interval, graph: graph, spans: make(map[int64][]txSpan)}
}

// conflicts reports whether concurrent spans on links a and b violate the
// interference model.
func (c *airtimeConserved) conflicts(a, b int) bool {
	return c.graph == nil || c.graph.Conflicts(a, b)
}

func (c *airtimeConserved) tx(k int64, link int, start, end sim.Time, collided bool) {
	if !c.hasOpen || k != c.openK {
		c.reopen(k)
	}
	c.open = append(c.open, txSpan{start: start, end: end, link: link, collided: collided})
}

// endInterval checks interval k's spans and releases every span at or before
// it.
func (c *airtimeConserved) endInterval(k int64, report Reporter) {
	c.finish(k, report)
	// Bound memory even when interval records are missing for some K
	// (sampled or truncated streams): everything at or before the finished
	// interval is settled.
	if c.hasOpen && c.openK <= k {
		c.free = append(c.free, c.open[:0])
		c.open, c.hasOpen = nil, false
	}
	for kk, spans := range c.spans {
		if kk <= k {
			c.free = append(c.free, spans[:0])
			delete(c.spans, kk)
		}
	}
}

// reopen parks the open interval's spans in the map and makes interval k
// the open one, resuming its parked spans or taking a free slice.
func (c *airtimeConserved) reopen(k int64) {
	if c.hasOpen {
		c.spans[c.openK] = c.open
	}
	spans, ok := c.spans[k]
	if ok {
		delete(c.spans, k)
	} else if len(c.free) > 0 {
		spans = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	}
	c.open, c.openK, c.hasOpen = spans, k, true
}

// finish checks one completed interval's spans; it reports at most one
// boundary violation and one overlap violation per interval.
func (c *airtimeConserved) finish(k int64, report Reporter) {
	spans := c.open
	if !c.hasOpen || c.openK != k {
		spans = c.spans[k]
	}
	if len(spans) == 0 {
		return
	}
	lo := sim.Time(k) * c.interval
	hi := lo + c.interval
	for _, s := range spans {
		if s.start < lo || s.end > hi || s.end <= s.start {
			report(Violation{
				Check: checkAirtime, K: k, At: s.end, Link: s.link,
				Msg: fmt.Sprintf("transmission [%v, %v] leaves interval %d's span [%v, %v]",
					s.start, s.end, k, lo, hi),
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
				Check: checkAirtime, K: k, At: b.start, Link: b.link,
				Msg: fmt.Sprintf("conflicting links %d and %d overlap on the channel without a collision outcome — airtime double-counted",
					a.link, b.link),
				Fields: map[string]float64{"a": float64(a.link), "b": float64(b.link)},
			})
			return
		}
	}
}
