// Package medium simulates the shared wireless channel of an ad hoc network
// under a conflict graph. With the default complete graph it is the
// fully-interfering channel of Section II-A of the paper:
//
//   - If two conflicting links transmit with any overlap in time, both
//     transmissions collide and fail; on the complete graph every pair of
//     links conflicts.
//   - A non-interfered data transmission on link n succeeds with probability
//     p_n (unreliable channel); the transmitter learns the outcome at the end
//     of the exchange (the ACK is part of the modelled airtime).
//   - Every device can carrier-sense: Busy reports whether any transmission
//     is in flight, BusyFor whether one is in flight in a link's closed
//     neighborhood, and subscribers are told about busy/idle transitions.
package medium

import (
	"fmt"

	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Outcome is the result of one transmission as observed by the transmitter.
type Outcome int

// Transmission outcomes.
const (
	// Delivered means the packet was received and acknowledged.
	Delivered Outcome = iota
	// Lost means the channel erased the packet (Bernoulli failure).
	Lost
	// Collided means the transmission overlapped another and was destroyed.
	Collided
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Lost:
		return "lost"
	case Collided:
		return "collided"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// LinkListener observes per-link carrier-sense transitions under a conflict
// graph, the simulated analogue of carrier sensing hardware: a link is busy
// while any transmission in its closed neighborhood (itself or a conflicting
// link) is in flight. On the complete graph every link moves with the whole
// channel, and Busy tells whether the channel as a whole is occupied.
//
// One transmission starting or finishing moves a whole neighborhood at once,
// so the transitioned links arrive together as a bitset: bit j%64 of word
// j/64 is set for link j, with one word per 64 links (the layout of
// Graph.ClosedRow). Each call carries at least one link, all of one
// connected component; in a clique component they are the whole component.
// The set aliases the medium's storage: it is valid only until the call
// returns and must not be modified. A listener must not start a
// transmission from inside LinksBusy, and may start one from inside
// LinksIdle only if it is the last one subscribed: the start reuses the
// set's storage and delivers its LinksBusy to every listener at once.
type LinkListener interface {
	// LinksBusy fires when the neighborhoods of the links in set
	// transition idle -> busy.
	LinksBusy(set []uint64, at sim.Time)
	// LinksIdle fires when the neighborhoods of the links in set
	// transition busy -> idle.
	LinksIdle(set []uint64, at sim.Time)
}

// Transmission is one in-flight or completed channel occupancy.
//
// The medium recycles Transmission objects through an internal free list; the
// pointer returned by Start is only valid until the transmission ends. Trace
// hooks receive a value copy, which they may keep.
type Transmission struct {
	Link     int
	Empty    bool // priority-claiming frame with no payload
	Start    sim.Time
	End      sim.Time
	collided bool
	onDone   func(Outcome)
	comp     *component
	// finishFn is the object's own end-of-transmission event callback, built
	// once per pooled object so Start schedules the finish without allocating
	// a fresh closure per transmission.
	finishFn func()
}

// Stats aggregates channel-level counters for reporting and tests. It is a
// compatibility view over the telemetry registry, which is the counters'
// single source of truth (see Medium.Registry).
type Stats struct {
	// Transmissions counts every started transmission, including empty frames.
	Transmissions int
	// EmptyFrames counts started priority-claiming frames.
	EmptyFrames int
	// Deliveries counts data transmissions that succeeded.
	Deliveries int
	// Losses counts data transmissions erased by the channel.
	Losses int
	// Collisions counts transmissions destroyed by overlap.
	Collisions int
	// BusyTime accumulates the union of channel-occupancy periods.
	BusyTime sim.Time
}

// Airtime breaks channel occupancy down by what the time was spent on.
// Busy is the union of occupancy periods (overlaps counted once); the other
// fields are summed per-transmission airtimes, so during a collision they
// exceed the wall-clock span they cover.
type Airtime struct {
	// Busy is the union of all occupancy periods.
	Busy sim.Time
	// Data is the summed airtime of non-collided data exchanges
	// (delivered or channel-lost).
	Data sim.Time
	// Empty is the summed airtime of non-collided priority-claiming frames.
	Empty sim.Time
	// Collided is the summed airtime of transmissions destroyed by overlap.
	Collided sim.Time
}

// Shares returns the fractions of the simulated span [0, now] that each
// field covers: busy is the channel utilization, data, empty and collided
// the clean-data, clean-empty and collided airtimes. All four are 0 when now
// is zero.
func (a Airtime) Shares(now sim.Time) (busy, data, empty, collided float64) {
	if now <= 0 {
		return 0, 0, 0, 0
	}
	span := float64(now)
	return float64(a.Busy) / span, float64(a.Data) / span, float64(a.Empty) / span, float64(a.Collided) / span
}

// channelMetrics are the medium's registry-backed counters.
type channelMetrics struct {
	transmissions *telemetry.Counter
	emptyFrames   *telemetry.Counter
	deliveries    *telemetry.Counter
	losses        *telemetry.Counter
	collisions    *telemetry.Counter
	busyUS        *telemetry.Counter
	dataUS        *telemetry.Counter
	emptyUS       *telemetry.Counter
	collidedUS    *telemetry.Counter
}

func newChannelMetrics(reg *telemetry.Registry) channelMetrics {
	return channelMetrics{
		transmissions: reg.Counter("rtmac_tx_total", "started transmissions, empty frames included"),
		emptyFrames:   reg.Counter("rtmac_tx_empty_total", "started priority-claiming empty frames"),
		deliveries:    reg.Counter("rtmac_tx_delivered_total", "data transmissions delivered and acknowledged"),
		losses:        reg.Counter("rtmac_tx_lost_total", "data transmissions erased by the channel"),
		collisions:    reg.Counter("rtmac_tx_collided_total", "transmissions destroyed by overlap"),
		busyUS:        reg.Counter("rtmac_airtime_busy_us_total", "microseconds the channel was occupied (union of occupancy periods)"),
		dataUS:        reg.Counter("rtmac_airtime_data_us_total", "summed airtime of non-collided data exchanges, microseconds"),
		emptyUS:       reg.Counter("rtmac_airtime_empty_us_total", "summed airtime of non-collided empty frames, microseconds"),
		collidedUS:    reg.Counter("rtmac_airtime_collided_us_total", "summed airtime of collided transmissions, microseconds"),
	}
}

// Medium is the shared channel. It is bound to one engine and is not safe
// for concurrent use.
type Medium struct {
	eng   *sim.Engine
	links int
	model Model
	rng   *sim.RNG
	// comps holds the state of each connected component of the conflict
	// graph, and txs holds the in-flight transmissions, each component's in
	// a segment of its own; inFlight is their total. Links in different
	// components never conflict, so a transmission is checked against, and
	// rebuilds the busy mask from, its own component's segment alone.
	comps     []component
	oneComp   [1]component // backs comps on a connected graph
	txs       []*Transmission
	inFlight  int
	txFree    []*Transmission
	busySince sim.Time
	inFinish  bool
	reg       *telemetry.Registry
	met       channelMetrics
	trace     func(tx Transmission, outcome Outcome)
	// graph is the conflict graph: only conflicting overlaps collide, and
	// per-link neighborhood busy state is tracked for spatial reuse. Given
	// no graph, it points at complete, the paper's channel, whose rows share
	// one buffer with the masks below.
	graph         *Graph
	complete      Graph
	linkListeners []LinkListener
	// Neighborhood bitsets, one bit per link in Graph.ClosedRow's layout.
	// busy has link n's bit set while a transmission in its closed
	// neighborhood is in flight; pendingIdle marks a neighborhood that
	// emptied during a finish, so a transmission chained from onDone keeps
	// the link continuously busy with no idle/busy flap (the per-link
	// analogue of inFinish). pendingIdle is always disjoint from busy and
	// empty outside finish. notify is the scratch set handed to listeners.
	// A transmission only moves bits of its own component, so the masks are
	// shared by all components and each update stays within one of them.
	busy        []uint64
	pendingIdle []uint64
	notify      []uint64
	// lastMask has the bits of busy's last word that belong to links.
	lastMask uint64
}

// component is the medium's state of one connected component of the
// conflict graph. Its in-flight transmissions are txs[off : off+n], in start
// order; the segment has room for all its links. The links of a clique
// component share one closed neighborhood, the whole component, so they turn
// busy and idle together: drained stands in for their pendingIdle bits.
type component struct {
	off, n  int
	clique  bool
	drained bool
}

// Option configures a Medium at construction.
type Option func(*Medium)

// WithRegistry routes the channel counters into the given telemetry
// registry instead of a private one, so one registry can expose the whole
// simulation.
func WithRegistry(reg *telemetry.Registry) Option {
	return func(m *Medium) {
		if reg != nil {
			m.reg = reg
		}
	}
}

// WithGraph sets the conflict graph governing which links interfere. A nil
// graph (the default) means the fully-interfering channel of the paper: the
// medium builds CompleteGraph(links) itself. Non-complete graphs enable
// spatial reuse: non-conflicting links transmit concurrently without
// colliding.
func WithGraph(g *Graph) Option {
	return func(m *Medium) {
		m.graph = g
	}
}

// New returns a channel shared by len(success) links with the paper's
// static reliability model; success[n] is the non-interfered delivery
// probability p_n of link n.
func New(eng *sim.Engine, success []float64, opts ...Option) (*Medium, error) {
	if len(success) == 0 {
		return nil, fmt.Errorf("medium: no links")
	}
	for n, p := range success {
		if !(p > 0 && p <= 1) {
			return nil, fmt.Errorf("medium: link %d: success probability %v outside (0, 1]", n, p)
		}
	}
	ps := make([]float64, len(success))
	copy(ps, success)
	return NewWithModel(eng, len(ps), staticModel{probs: ps}, opts...)
}

// NewWithModel returns a channel whose delivery probabilities come from an
// arbitrary (possibly time-varying) model.
func NewWithModel(eng *sim.Engine, links int, model Model, opts ...Option) (*Medium, error) {
	if eng == nil {
		return nil, fmt.Errorf("medium: nil engine")
	}
	if links <= 0 {
		return nil, fmt.Errorf("medium: no links")
	}
	if model == nil {
		return nil, fmt.Errorf("medium: nil channel model")
	}
	m := &Medium{
		eng:   eng,
		links: links,
		model: model,
		rng:   eng.RNG("medium"),
	}
	for _, opt := range opts {
		opt(m)
	}
	words := graphWords(links)
	var masks []uint64
	if m.graph == nil {
		// One buffer holds the complete graph's rows and closed rows and
		// the three masks.
		rows := 2 * links * words
		buf := make([]uint64, rows+3*words)
		m.complete.initComplete(links, buf[:rows:rows])
		m.graph = &m.complete
		masks = buf[rows:]
	} else {
		if m.graph.Links() != links {
			return nil, fmt.Errorf("medium: conflict graph covers %d links, medium has %d",
				m.graph.Links(), links)
		}
		masks = make([]uint64, 3*words)
	}
	g := m.graph
	m.comps = m.oneComp[:]
	if g.Components() > 1 {
		m.comps = make([]component, g.Components())
	}
	m.txs = make([]*Transmission, links)
	for c, off := 0, 0; c < len(m.comps); c++ {
		m.comps[c] = component{off: off, clique: g.Clique(c)}
		off += g.ComponentSize(c)
	}
	m.busy = masks[:words:words]
	m.pendingIdle = masks[words : 2*words : 2*words]
	m.notify = masks[2*words:]
	m.lastMask = ^uint64(0) >> uint(64*words-links)
	if m.reg == nil {
		m.reg = telemetry.NewRegistry()
	}
	m.met = newChannelMetrics(m.reg)
	return m, nil
}

// Links returns the number of links sharing the channel.
func (m *Medium) Links() int { return m.links }

// SuccessProb returns the long-run mean delivery probability of link n —
// the p_n the protocols' debt weights use. Under the static model this is
// the instantaneous probability too.
func (m *Medium) SuccessProb(n int) float64 { return m.model.Mean(n) }

// Busy reports whether any transmission is currently in flight — the carrier-
// sense primitive.
func (m *Medium) Busy() bool { return m.inFlight > 0 }

// Graph returns the conflict graph; it is never nil (the complete graph
// when none was given).
func (m *Medium) Graph() *Graph { return m.graph }

// BusyFor reports whether link n's closed neighborhood has a transmission in
// flight — the per-link carrier-sense primitive. On the complete graph it
// equals Busy.
func (m *Medium) BusyFor(n int) bool {
	return m.busy[uint(n)/64]&(1<<(uint(n)%64)) != 0
}

// AllBusy reports whether every link's closed neighborhood has a
// transmission in flight, so no link can start without colliding. On the
// complete graph it equals Busy.
func (m *Medium) AllBusy() bool {
	last := len(m.busy) - 1
	for _, w := range m.busy[:last] {
		if w != ^uint64(0) {
			return false
		}
	}
	return m.busy[last] == m.lastMask
}

// requireQuiescent enforces the read contract of the aggregate views: they
// are only consistent when no transmission is in flight (BusyTime of the
// current occupancy period is not yet accumulated, and in-flight outcomes
// are unresolved). Reading mid-transmission used to yield silently stale
// numbers; it now panics, like the other usage errors in this package.
func (m *Medium) requireQuiescent(what string) {
	if m.inFlight > 0 {
		panic(fmt.Sprintf(
			"medium: %s read with %d transmissions in flight; call it at an interval boundary (e.g. after Run returns)",
			what, m.inFlight))
	}
}

// Stats returns a copy of the channel counters, read from the telemetry
// registry they live in. It must be called while the channel is quiescent —
// between intervals or after Run — and panics mid-transmission.
func (m *Medium) Stats() Stats {
	m.requireQuiescent("Stats")
	return Stats{
		Transmissions: int(m.met.transmissions.Value()),
		EmptyFrames:   int(m.met.emptyFrames.Value()),
		Deliveries:    int(m.met.deliveries.Value()),
		Losses:        int(m.met.losses.Value()),
		Collisions:    int(m.met.collisions.Value()),
		BusyTime:      sim.Time(m.met.busyUS.Value()),
	}
}

// Airtime returns the channel-occupancy accounting: union busy time plus
// summed per-category airtimes. Like Stats, it must be called while the
// channel is quiescent and panics mid-transmission.
func (m *Medium) Airtime() Airtime {
	m.requireQuiescent("Airtime")
	return Airtime{
		Busy:     sim.Time(m.met.busyUS.Value()),
		Data:     sim.Time(m.met.dataUS.Value()),
		Empty:    sim.Time(m.met.emptyUS.Value()),
		Collided: sim.Time(m.met.collidedUS.Value()),
	}
}

// Registry returns the telemetry registry holding the channel counters —
// the medium's own private registry unless WithRegistry supplied a shared
// one.
func (m *Medium) Registry() *telemetry.Registry { return m.reg }

// SubscribeLinks registers a per-link carrier-sense listener. Listeners are
// notified in subscription order, which keeps runs deterministic. It must
// not be called from a transmission's onDone: the medium tracks pending idle
// transitions only while a listener is subscribed.
func (m *Medium) SubscribeLinks(l LinkListener) {
	m.linkListeners = append(m.linkListeners, l)
}

// SetTrace installs (or, with nil, removes) the hook invoked once per
// completed transmission, with a copy of the transmission record and its
// resolved outcome. It runs before the transmitter's onDone callback. The
// medium keeps one hook: in a network it is the probe fan-out, which every
// per-transmission observer reads from.
func (m *Medium) SetTrace(fn func(tx Transmission, outcome Outcome)) { m.trace = fn }

// Start begins a transmission of the given duration on link. onDone is
// invoked exactly once, at the instant the transmission ends, with the
// outcome; it runs before any LinksIdle notification so the transmitter
// can chain another transmission back-to-back without releasing the channel.
func (m *Medium) Start(link int, duration sim.Time, empty bool, onDone func(Outcome)) *Transmission {
	if link < 0 || link >= m.links {
		panic(fmt.Sprintf("medium: link %d out of range [0, %d)", link, m.links))
	}
	if duration <= 0 {
		panic(fmt.Sprintf("medium: non-positive transmission duration %v", duration))
	}
	// One pass over the component's transmissions in flight checks for a
	// duplicate and marks conflicting overlaps, which destroy both
	// transmissions involved.
	comp := &m.comps[m.graph.comp[link]]
	row := m.graph.rows[link*m.graph.words : (link+1)*m.graph.words]
	collided := false
	for _, other := range m.txs[comp.off : comp.off+comp.n] {
		j := other.Link
		if j == link {
			panic(fmt.Sprintf("medium: link %d started a transmission while already transmitting", link))
		}
		if row[j/64]&(1<<(uint(j)%64)) != 0 {
			collided = true
			other.collided = true
		}
	}
	now := m.eng.Now()
	var tx *Transmission
	if n := len(m.txFree); n > 0 {
		tx = m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		tx.Link, tx.Empty, tx.Start, tx.End = link, empty, now, now+duration
		tx.collided, tx.onDone, tx.comp = collided, onDone, comp
	} else {
		tx = &Transmission{
			Link:     link,
			Empty:    empty,
			Start:    now,
			End:      now + duration,
			collided: collided,
			onDone:   onDone,
			comp:     comp,
		}
		fin := tx
		tx.finishFn = func() { m.finish(fin) }
	}
	// A transmission chained from inside a finishing transmission's onDone
	// keeps the channel continuously occupied: no idle/busy transition.
	wasIdle := m.inFlight == 0 && !m.inFinish
	m.txs[comp.off+comp.n] = tx
	comp.n++
	m.inFlight++
	m.met.transmissions.Inc()
	if empty {
		m.met.emptyFrames.Inc()
	}
	if wasIdle {
		m.busySince = now
	}
	m.noteStart(link, comp, now)
	m.eng.ScheduleAt(tx.End, tx.finishFn)
	return tx
}

// noteStart marks the closed neighborhood of a starting transmission busy
// and notifies per-link listeners of the links that turned busy. A
// neighborhood that was drained inside the enclosing finish (pendingIdle) is
// simply kept busy: back-to-back occupancy produces no flap. With no
// listener only the busy set is kept, and pendingIdle stays empty.
func (m *Medium) noteStart(link int, comp *component, now sim.Time) {
	row := m.graph.ClosedRow(link)
	if comp.clique {
		// Only the component's first transmission moves it.
		if comp.n > 1 {
			return
		}
		for w, r := range row {
			m.busy[w] |= r
		}
		if comp.drained {
			comp.drained = false
			return
		}
		for _, l := range m.linkListeners {
			l.LinksBusy(row, now)
		}
		return
	}
	if len(m.linkListeners) == 0 {
		for w, r := range row {
			m.busy[w] |= r
		}
		return
	}
	var moved uint64
	for w, r := range row {
		newly := r &^ m.busy[w]
		m.busy[w] |= r
		m.notify[w] = newly &^ m.pendingIdle[w]
		m.pendingIdle[w] &^= newly
		moved |= m.notify[w]
	}
	if moved != 0 {
		for _, l := range m.linkListeners {
			l.LinksBusy(m.notify, now)
		}
	}
}

// noteFinishDown drops a finishing transmission from the busy set. Only the
// bits of its closed neighborhood can change; they are rebuilt from the
// closed rows of the transmissions still in flight in its component, the
// only rows that reach them. Links that drain are not declared idle yet —
// the finishing link's onDone may chain a follow-up transmission — but
// marked pendingIdle; noteFinishIdle settles them after onDone ran.
func (m *Medium) noteFinishDown(link int, comp *component, active []*Transmission) {
	row := m.graph.ClosedRow(link)
	if comp.clique {
		if len(active) == 0 {
			for w, r := range row {
				m.busy[w] &^= r
			}
			comp.drained = len(m.linkListeners) != 0
		}
		return
	}
	for w, r := range row {
		if r == 0 {
			continue
		}
		var busy uint64
		for _, tx := range active {
			busy |= m.graph.closed[tx.Link*m.graph.words+w]
		}
		busy &= r
		m.busy[w] = m.busy[w]&^r | busy
		if len(m.linkListeners) != 0 {
			m.pendingIdle[w] |= r &^ busy
		}
	}
}

// noteFinishIdle delivers LinksIdle for the neighborhoods of the finished
// transmission that are still drained after onDone had its chance to chain.
func (m *Medium) noteFinishIdle(link int, comp *component, now sim.Time) {
	if len(m.linkListeners) == 0 {
		return
	}
	row := m.graph.ClosedRow(link)
	if comp.clique {
		if comp.drained {
			comp.drained = false
			for _, l := range m.linkListeners {
				l.LinksIdle(row, now)
			}
		}
		return
	}
	var moved uint64
	for w, r := range row {
		m.notify[w] = r & m.pendingIdle[w]
		m.pendingIdle[w] &^= m.notify[w]
		moved |= m.notify[w]
	}
	if moved != 0 {
		for _, l := range m.linkListeners {
			l.LinksIdle(m.notify, now)
		}
	}
}

func (m *Medium) finish(tx *Transmission) {
	// Remove tx from its component's segment.
	comp := tx.comp
	active := m.txs[comp.off : comp.off+comp.n]
	for i, other := range active {
		if other == tx {
			copy(active[i:], active[i+1:])
			active[len(active)-1] = nil
			active = active[:len(active)-1]
			break
		}
	}
	comp.n = len(active)
	m.inFlight--
	// The busy set drops before onDone so BusyFor reflects the finished
	// transmission during the callback, like Busy; idle notifications wait
	// until after it.
	m.noteFinishDown(tx.Link, comp, active)
	outcome := m.resolve(tx)
	if m.trace != nil {
		m.trace(*tx, outcome)
	}
	if tx.onDone != nil {
		// The callback may immediately start a follow-up transmission,
		// keeping the channel busy with no idle gap.
		m.inFinish = true
		tx.onDone(outcome)
		m.inFinish = false
	}
	if m.inFlight == 0 {
		m.met.busyUS.Add(int64(m.eng.Now() - m.busySince))
	}
	m.noteFinishIdle(tx.Link, comp, m.eng.Now())
	// Recycle: nothing references tx past this point (Start's return value is
	// dead once the transmission ends, and the trace hook got a value copy).
	tx.onDone = nil
	m.txFree = append(m.txFree, tx)
}

func (m *Medium) resolve(tx *Transmission) Outcome {
	airtime := int64(tx.End - tx.Start)
	if tx.collided {
		m.met.collisions.Inc()
		m.met.collidedUS.Add(airtime)
		return Collided
	}
	if tx.Empty {
		// Empty frames carry no payload and expect no ACK; an uncollided
		// empty frame always serves its priority-claiming purpose.
		m.met.emptyUS.Add(airtime)
		return Delivered
	}
	m.met.dataUS.Add(airtime)
	if m.rng.Bernoulli(m.model.Instantaneous(tx.Link, tx.End)) {
		m.met.deliveries.Inc()
		return Delivered
	}
	m.met.losses.Inc()
	return Lost
}
