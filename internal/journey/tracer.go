package journey

import (
	"fmt"
	"io"
	"sync"

	"rtmac/internal/medium"
	"rtmac/internal/perm"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Tracer records sampled packet journeys and per-link debt timelines from
// one simulation. It is a mac.Probe and a mac.SlotProbe: the network drives
// it through the probe and per-slot records, all called from the simulation
// goroutine, while the published state (attribution tallies, timelines) is
// read through mutex-guarded accessors so a live HTTP plane can serve it
// mid-run.
//
// Sampling is by global arrival sequence: packet seq is recorded iff
// seq % sample == 0, which keeps the decision independent of scheduling and
// byte-deterministic for a fixed seed. With sample == 1 every packet is
// recorded and the attribution tallies reconcile exactly with the
// simulation's delivered/expired totals.
type Tracer struct {
	links  int
	sample int64
	// out buffers the JSONL stream; nil when the tracer streams nothing.
	out *telemetry.LineBuffer
	err error

	// Interval-local state, owned by the simulation goroutine.
	open     bool
	k        int64
	start    sim.Time
	deadline sim.Time
	prio     []int        // 1-based priority per link, 0 when the protocol has none
	packets  [][]*Journey // per link, per arrival index; nil entry = unsampled
	rounds   [][]Round    // contention rounds per link this interval
	live     []bool       // link has >= 1 unresolved sampled packet
	wins     []int        // per-link data outcomes this interval; wins is S_n(k) so far
	losses   []int
	colls    []int
	swapUp   []bool
	swapDown []bool
	free     []*Journey // journey pool

	// Published state, guarded by mu.
	mu        sync.Mutex
	seq       int64 // packets seen (sampled or not)
	count     int64 // journeys written
	agg       Attribution
	perLink   []Attribution
	timelines []Timeline
	nSwapUp   []int64
	nSwapDown []int64
}

// timelineCapacity is how many intervals each link's debt timeline ring
// keeps.
const timelineCapacity = 512

// NewTracer builds a tracer for a network of links links, streaming completed
// journeys as JSONL to w (nil keeps only the in-memory aggregates and
// timelines) and recording every sample-th packet (1 records all).
func NewTracer(links int, w io.Writer, sample int) (*Tracer, error) {
	if links <= 0 {
		return nil, fmt.Errorf("journey: no links")
	}
	if sample < 1 {
		return nil, fmt.Errorf("journey: sample %d must be at least 1", sample)
	}
	t := &Tracer{
		links:     links,
		sample:    int64(sample),
		prio:      make([]int, links),
		packets:   make([][]*Journey, links),
		rounds:    make([][]Round, links),
		live:      make([]bool, links),
		wins:      make([]int, links),
		losses:    make([]int, links),
		colls:     make([]int, links),
		swapUp:    make([]bool, links),
		swapDown:  make([]bool, links),
		perLink:   make([]Attribution, links),
		timelines: make([]Timeline, links),
		nSwapUp:   make([]int64, links),
		nSwapDown: make([]int64, links),
	}
	for i := range t.timelines {
		t.timelines[i] = newTimeline(timelineCapacity)
	}
	if w != nil {
		out := telemetry.NewLineBuffer(w)
		t.out = &out
		header := telemetry.StreamHeader{
			Schema:  telemetry.JourneyStreamSchema,
			Version: telemetry.JourneyStreamVersion,
		}
		if err := out.Commit(append(out.Bytes(), header.MarshalLine()...)); err != nil {
			t.err = fmt.Errorf("journey: stream: %w", err)
		}
	}
	return t, nil
}

// Links returns the network size the tracer was built for.
func (t *Tracer) Links() int { return t.links }

// SampleEvery returns the sampling stride.
func (t *Tracer) SampleEvery() int { return int(t.sample) }

// BeginInterval opens interval k: sample the interval's arrivals into fresh
// journeys, reset the per-interval scratch and record the priority each
// link holds during the interval (1-based; prio nil records 0). Called by
// the network before the protocol sees the interval.
func (t *Tracer) BeginInterval(k int64, start, deadline sim.Time, arrivals []int, prio perm.Permutation) {
	t.open = true
	t.k, t.start, t.deadline = k, start, deadline
	seq := t.seqValue()
	for link := 0; link < t.links; link++ {
		t.packets[link] = t.packets[link][:0]
		t.rounds[link] = t.rounds[link][:0]
		t.live[link] = false
		t.wins[link], t.losses[link], t.colls[link] = 0, 0, 0
		t.swapUp[link], t.swapDown[link] = false, false
		t.prio[link] = 0
		if prio != nil {
			t.prio[link] = prio[link]
		}
		for idx := 0; idx < arrivals[link]; idx++ {
			var j *Journey
			if seq%t.sample == 0 {
				j = t.getJourney()
				j.Seq, j.K, j.Link, j.Idx = seq, k, link, idx
				j.Arrived, j.Deadline = start, deadline
				t.live[link] = true
			}
			t.packets[link] = append(t.packets[link], j)
			seq++
		}
	}
	t.setSeq(seq)
}

// Backoff records one contention-round entry for link: the initial backoff
// counter it drew from the contention coordinator.
func (t *Tracer) Backoff(_ int64, _ sim.Time, link, backoff int) { t.round(link, backoff) }

// Round records one contention round a protocol ran privately (FCSMA).
func (t *Tracer) Round(_ int64, _ sim.Time, link, backoff int) { t.round(link, backoff) }

func (t *Tracer) round(link, backoff int) {
	if !t.open || !t.live[link] {
		return
	}
	t.rounds[link] = append(t.rounds[link], Round{Backoff: backoff, Sense: -1})
}

// Sense is the probe form of ObserveSense.
func (t *Tracer) Sense(_ int64, _ sim.Time, link int, busy bool) { t.ObserveSense(link, busy) }

// Fire is the probe form of ObserveFire.
func (t *Tracer) Fire(_ int64, _ sim.Time, link int, started bool) { t.ObserveFire(link, started) }

// ObserveSense records the carrier-sense observation at link's counter-one
// instant, annotating its latest round.
func (t *Tracer) ObserveSense(link int, busy bool) {
	if !t.open || !t.live[link] {
		return
	}
	if n := len(t.rounds[link]); n > 0 {
		if busy {
			t.rounds[link][n-1].Sense = 1
		} else {
			t.rounds[link][n-1].Sense = 0
		}
	}
}

// ObserveFire records that link's backoff counter reached zero; started
// reports whether it actually put a frame on the air.
func (t *Tracer) ObserveFire(link int, started bool) {
	if !t.open || !t.live[link] {
		return
	}
	if n := len(t.rounds[link]); n > 0 {
		t.rounds[link][n-1].Fired = true
		t.rounds[link][n-1].Started = started
	}
}

// Tx records one completed transmission. The link's head-of-line packet is
// the one indexed by its deliveries so far this interval (the Tx record
// precedes the network's own bookkeeping, so the count excludes this
// transmission); empty priority-claiming frames carry no packet and only
// matter to contention, not to journeys.
func (t *Tracer) Tx(_ int64, tx medium.Transmission, outcome medium.Outcome) {
	if !t.open || tx.Empty {
		return
	}
	link, head := tx.Link, t.wins[tx.Link]
	switch outcome {
	case medium.Delivered:
		t.wins[link]++
	case medium.Lost:
		t.losses[link]++
	case medium.Collided:
		t.colls[link]++
	}
	if head >= len(t.packets[link]) {
		return // transmission beyond the interval's arrivals (defensive)
	}
	j := t.packets[link][head]
	if j == nil {
		return // head packet not sampled
	}
	j.Attempts = append(j.Attempts, Attempt{Start: tx.Start, End: tx.End, Outcome: outcome.String()})
	if outcome == medium.Delivered {
		j.Cause = CauseDelivered
		j.DoneAt = tx.End
		j.Delay = tx.End - j.Arrived
		j.roundsAtDone = len(t.rounds[link])
	}
}

// Swap records one committed or rejected priority-swap decision: down is
// the link demoted by an accepted swap, up the link promoted.
func (t *Tracer) Swap(_ int64, _ sim.Time, _, down, up int, accepted bool) {
	if !t.open || !accepted {
		return
	}
	if down >= 0 && down < t.links {
		t.swapDown[down] = true
	}
	if up >= 0 && up < t.links {
		t.swapUp[up] = true
	}
}

// Debt closes the interval on the Eq. 1 update: classify every sampled
// packet that was not delivered, stream the finished journeys in (link, idx)
// order, fold the causes into the attribution tallies, and append one debt
// point per link carrying the signed post-update d_n(k) from debts. The
// network emits this record before the interval event, so a live reader of
// the tallies is never behind the event stream.
func (t *Tracer) Debt(_ int64, _ sim.Time, debts []float64, _, _ float64, _ int) {
	if !t.open {
		return
	}
	t.open = false
	t.mu.Lock()
	defer t.mu.Unlock()
	for link := 0; link < t.links; link++ {
		rounds := t.rounds[link]
		for idx, j := range t.packets[link] {
			if j == nil {
				continue
			}
			if idx < t.wins[link] {
				// Delivered mid-interval: terminal state was stamped by
				// Tx; attach the rounds that preceded the delivery.
				j.Rounds = rounds[:j.roundsAtDone]
			} else {
				j.Cause = classify(j.Attempts, rounds)
				j.Rounds = rounds
			}
			j.Prio = t.prio[link]
			t.agg.Add(j.Cause)
			t.perLink[link].Add(j.Cause)
			t.encode(j)
			t.putJourney(j)
			t.packets[link][idx] = nil
		}
		if t.swapUp[link] {
			t.nSwapUp[link]++
		}
		if t.swapDown[link] {
			t.nSwapDown[link]++
		}
		t.timelines[link].add(DebtPoint{
			K:         t.k,
			Debt:      debts[link],
			Delivered: t.wins[link],
			Lost:      t.losses[link],
			Collided:  t.colls[link],
			SwapUp:    t.swapUp[link],
			SwapDown:  t.swapDown[link],
		})
	}
}

// EndInterval implements mac.Probe; the interval already closed on Debt.
func (t *Tracer) EndInterval(int64, sim.Time, int, int, int, perm.Permutation) {}

// encode streams one finished journey; errors are sticky, like the telemetry
// JSONL sink, so a failed disk write cannot silently truncate mid-record.
func (t *Tracer) encode(j *Journey) {
	if t.out == nil || t.err != nil {
		return
	}
	if err := t.out.Commit(appendJSON(t.out.Bytes(), j)); err != nil {
		t.err = fmt.Errorf("journey: stream: %w", err)
		return
	}
	t.count++
}

// Flush drains the JSONL buffer and returns the first stream error, if any.
func (t *Tracer) Flush() error {
	if t.err != nil {
		return t.err
	}
	if t.out == nil {
		return nil
	}
	if err := t.out.Flush(); err != nil {
		t.err = fmt.Errorf("journey: stream: %w", err)
	}
	return t.err
}

// Count returns how many journeys were written to the JSONL stream.
func (t *Tracer) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Seen returns how many packet arrivals the tracer observed, sampled or not.
func (t *Tracer) Seen() int64 { return t.seqValue() }

func (t *Tracer) seqValue() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

func (t *Tracer) setSeq(v int64) {
	t.mu.Lock()
	t.seq = v
	t.mu.Unlock()
}

// Attribution returns the network-wide tally over all recorded journeys.
func (t *Tracer) Attribution() Attribution {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.agg
}

// LinkAttribution returns one link's tally.
func (t *Tracer) LinkAttribution(link int) (Attribution, error) {
	if link < 0 || link >= t.links {
		return Attribution{}, fmt.Errorf("journey: link %d outside [0, %d)", link, t.links)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perLink[link], nil
}

// Timeline returns a chronological copy of one link's debt timeline.
func (t *Tracer) Timeline(link int) ([]DebtPoint, error) {
	if link < 0 || link >= t.links {
		return nil, fmt.Errorf("journey: link %d outside [0, %d)", link, t.links)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.timelines[link].Points(), nil
}

// Swaps returns how many intervals committed a swap moving link up
// (promotion) and down (demotion).
func (t *Tracer) Swaps(link int) (up, down int64, err error) {
	if link < 0 || link >= t.links {
		return 0, 0, fmt.Errorf("journey: link %d outside [0, %d)", link, t.links)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nSwapUp[link], t.nSwapDown[link], nil
}

// getJourney takes a reset journey from the pool.
func (t *Tracer) getJourney() *Journey {
	if n := len(t.free); n > 0 {
		j := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		return j
	}
	return &Journey{}
}

// putJourney recycles a streamed journey. Rounds alias the tracer's shared
// per-link scratch, so they are dropped rather than reused.
func (t *Tracer) putJourney(j *Journey) {
	attempts := j.Attempts[:0]
	*j = Journey{Attempts: attempts}
	t.free = append(t.free, j)
}
