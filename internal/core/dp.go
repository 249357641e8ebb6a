package core

import (
	"fmt"
	"math/bits"
	"sync"

	"rtmac/internal/mac"
	"rtmac/internal/medium"
	"rtmac/internal/perm"
	"rtmac/internal/sim"
)

// minMu bounds the coin bias away from {0, 1} so that every adjacent
// transposition keeps positive probability (Lemma 4's irreducibility needs
// µ_n ∈ (0, 1)).
const minMu = 1e-9

// Option configures the DP protocol.
type Option func(*Protocol) error

// WithPairs enables the Remark 6 extension: m non-adjacent priority pairs
// are selected for swapping in every interval instead of one.
func WithPairs(m int) Option {
	return func(p *Protocol) error {
		if m < 1 {
			return fmt.Errorf("core: pair count %d must be at least 1", m)
		}
		p.pairs = m
		return nil
	}
}

// WithInitialPriorities sets σ(0). The default is the identity permutation
// (link n starts at priority n+1).
func WithInitialPriorities(prio perm.Permutation) Option {
	return func(p *Protocol) error {
		if !prio.Valid() {
			return fmt.Errorf("core: initial priorities %v are not a permutation", prio)
		}
		p.initial = prio.Clone()
		return nil
	}
}

// WithFrozenPriorities disables randomized reordering entirely: the priority
// ordering stays at σ(0) forever. Used for the paper's Figure 6 experiment
// (average timely-throughput per fixed priority index).
func WithFrozenPriorities() Option {
	return func(p *Protocol) error {
		p.frozen = true
		return nil
	}
}

// pairState tracks one swap pair's coordination through an interval.
type pairState struct {
	c        int // priority position: links at priorities c and c+1 are the candidates
	down, up int // link IDs: down holds priority c, up holds c+1
	// xiDown/xiUp are the ±1 coin outcomes of Eq. 5.
	xiDown, xiUp int
	// downSensedBusy: the down candidate's timer reached one and the channel
	// was busy at that instant (Eq. 7 swap-down condition).
	downSensedBusy bool
	// upSensedIdle: the up candidate's timer reached one and the channel was
	// idle at that instant (Eq. 8 swap-up condition).
	upSensedIdle bool
	// upStarted: the up candidate actually began a transmission when its
	// timer expired, which is the physical signal the down candidate hears.
	upStarted bool
}

// Protocol is the decentralized priority protocol (Algorithm 2) with a
// pluggable reordering bias. With the DebtGlauber policy it is the DB-DP
// algorithm. Construct with New.
type Protocol struct {
	policy  MuPolicy
	pairs   int
	frozen  bool
	initial perm.Permutation
	// name is Name's result, built by its first call: construction does
	// not pay for a name no caller reads.
	name     string
	nameOnce sync.Once

	prio perm.Permutation // σ(k-1), carried across intervals
	// inv is the maintained inverse of prio (priority c ↦ link at index c-1),
	// giving O(1) LinkAtPriority lookups in the per-interval backoff walk.
	inv []int

	// Per-interval scratch, reused across intervals to keep the per-interval
	// allocation count flat.
	active      []pairState
	backoffs    []int
	xiRNGs      []*sim.RNG
	fireFns     []func() bool
	dataDoneFns []func(delivered bool)
	senseFns    []func(busy bool)
	positions   []int
	// swaps counts committed priority exchanges, for diagnostics.
	swaps int64
	// graph/local describe the per-neighborhood mode: on a non-complete
	// conflict graph each link's backoff counter is its local priority rank
	// within its closed neighborhood (links in disjoint neighborhoods reuse
	// the same early slots — spatial reuse), and swaps are decided by the
	// candidates' coins alone. The paper's carrier-sense handshake (Eqs.
	// 7/8) assumes every device hears every other; under partial
	// interference the candidates of a pair may not conflict at all, so the
	// sensing-based agreement is replaced by the coin-only rule
	// swap ⇔ ξ_down = −1 ∧ ξ_up = +1 — the same stationary swap dynamics,
	// minus the over-the-air confirmation (see DESIGN.md).
	graph *medium.Graph
	local bool
}

// New builds a DP protocol for n links using the given µ policy.
func New(n int, policy MuPolicy, opts ...Option) (*Protocol, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need at least 1 link, got %d", n)
	}
	if policy == nil {
		return nil, fmt.Errorf("core: nil µ policy")
	}
	p := &Protocol{policy: policy, pairs: 1}
	for _, opt := range opts {
		if err := opt(p); err != nil {
			return nil, err
		}
	}
	if p.initial == nil {
		p.initial = perm.Identity(n)
	}
	if p.initial.Len() != n {
		return nil, fmt.Errorf("core: initial priorities cover %d links, want %d",
			p.initial.Len(), n)
	}
	if max := n / 2; p.pairs > max && !p.frozen {
		return nil, fmt.Errorf("core: %d non-adjacent pairs do not fit %d links (max %d)",
			p.pairs, n, max)
	}
	p.prio = p.initial.Clone()
	p.inv = make([]int, n)
	for link, pr := range p.prio {
		p.inv[pr-1] = link
	}
	return p, nil
}

// linkAt is LinkAtPriority via the maintained inverse: O(1) instead of the
// permutation's O(N) scan.
func (p *Protocol) linkAt(pr int) int { return p.inv[pr-1] }

// ensureInv (re)builds the inverse when it is missing or stale — only
// possible for hand-assembled Protocol values in tests; New and the in-place
// swap keep it in lockstep.
func (p *Protocol) ensureInv() {
	if len(p.inv) == len(p.prio) {
		return
	}
	p.inv = make([]int, len(p.prio))
	for link, pr := range p.prio {
		p.inv[pr-1] = link
	}
}

// NewDBDP builds the paper's DB-DP algorithm: DP with the Eq. 14 debt-based
// Glauber bias and the paper's evaluation parameters.
func NewDBDP(n int, opts ...Option) (*Protocol, error) {
	return New(n, PaperDebtGlauber(), opts...)
}

// Name implements mac.Protocol.
func (p *Protocol) Name() string {
	p.nameOnce.Do(func() {
		switch {
		case p.frozen:
			p.name = "dp-frozen"
		case p.pairs > 1:
			p.name = fmt.Sprintf("dbdp[%s,pairs=%d]", p.policy.Name(), p.pairs)
		default:
			p.name = fmt.Sprintf("dbdp[%s]", p.policy.Name())
		}
	})
	return p.name
}

// Priorities returns σ(k-1), the current priority assignment.
func (p *Protocol) Priorities() perm.Permutation { return p.prio.Clone() }

// CopyPriorities copies σ(k-1) into dst (reusing its capacity) and returns
// it — the allocation-free snapshot path the network's per-interval event
// stream uses.
func (p *Protocol) CopyPriorities(dst perm.Permutation) perm.Permutation {
	return append(dst[:0], p.prio...)
}

// Swaps returns the number of committed priority exchanges so far.
func (p *Protocol) Swaps() int64 { return p.swaps }

// BeginInterval implements mac.Protocol.
func (p *Protocol) BeginInterval(ctx *mac.Context) {
	n := ctx.Links()
	p.active = p.active[:0]
	p.graph = ctx.Med.Graph()
	p.local = !p.graph.Complete()

	if !p.frozen && n >= 2 {
		p.selectPairs(ctx)
	}

	// Step 2: swap candidates without traffic queue an empty frame so their
	// priority claim is audible. Local mode decides swaps from coins alone,
	// so no empty-frame claims are needed (and forcing them would waste
	// airtime in neighborhoods the candidates do not even share).
	if !p.local {
		for i := range p.active {
			ps := &p.active[i]
			if ctx.Pending(ps.down) == 0 {
				ctx.QueueEmptyFrame(ps.down)
			}
			if ctx.Pending(ps.up) == 0 {
				ctx.QueueEmptyFrame(ps.up)
			}
		}
	}

	// Steps 4–6: derive backoff counters from priorities and coin tosses,
	// register every link that has something to send. The fire closures are
	// built once per network (the context object is stable across
	// intervals) and reused every interval.
	if p.fireFns == nil {
		p.fireFns = make([]func() bool, n)
		p.dataDoneFns = make([]func(delivered bool), n)
		p.senseFns = make([]func(busy bool), n)
		for link := 0; link < n; link++ {
			link := link
			p.fireFns[link] = func() bool { return p.fire(ctx, link) }
			p.dataDoneFns[link] = func(delivered bool) {
				p.reportOutcome(link, delivered)
				p.continueChain(ctx, link)
			}
			p.senseFns[link] = func(busy bool) { p.applySense(link, busy) }
		}
	}
	var backoffs []int
	if p.local {
		backoffs = p.computeLocalBackoffs(n)
	} else {
		backoffs = p.computeBackoffs(n)
	}
	cont := ctx.Contention()
	for link := 0; link < n; link++ {
		if !ctx.HasTraffic(link) {
			continue
		}
		contender := mac.Contender{Fire: p.fireFns[link]}
		if !p.local {
			if hook := p.sensingHook(link); hook != nil {
				contender.ReachedOne = hook
			}
		}
		cont.Add(link, backoffs[link], contender)
	}
	cont.Settle()
}

// selectPairs draws the interval's swap positions (Step 1 of Algorithm 2;
// uniformly random C(k), or m pairwise non-adjacent positions under the
// Remark 6 extension) and the candidates' coins (Step 3).
func (p *Protocol) selectPairs(ctx *mac.Context) {
	n := ctx.Links()
	p.ensureInv()
	// The common random seed shared by all devices (Step 1) is modelled by
	// a single engine stream: every link observes the same C(k).
	common := ctx.Eng.RNG("dp-common")
	if p.pairs == 1 {
		// Fast path reusing the scratch slice (the general sampler allocates).
		p.positions = append(p.positions[:0], 1+common.IntN(n-1))
	} else {
		p.positions = append(p.positions[:0], samplePairPositions(common, n, p.pairs)...)
	}
	for _, c := range p.positions {
		down := p.linkAt(c)
		up := p.linkAt(c + 1)
		ps := pairState{c: c, down: down, up: up, xiDown: -1, xiUp: -1}
		// Individual coin tosses (Eq. 5) from per-link streams.
		if p.xiRNG(ctx, down).Bernoulli(clampMu(p.policy.Mu(ctx, down))) {
			ps.xiDown = 1
		}
		if p.xiRNG(ctx, up).Bernoulli(clampMu(p.policy.Mu(ctx, up))) {
			ps.xiUp = 1
		}
		p.active = append(p.active, ps)
	}
}

// xiRNG returns link's private coin stream, caching the lookup (the name
// derivation allocates; priorities swap every interval so every link's
// stream is hot).
func (p *Protocol) xiRNG(ctx *mac.Context, link int) *sim.RNG {
	if p.xiRNGs == nil {
		p.xiRNGs = make([]*sim.RNG, ctx.Links())
	}
	if p.xiRNGs[link] == nil {
		p.xiRNGs[link] = ctx.Eng.RNG(fmt.Sprintf("dp-xi-%d", link))
	}
	return p.xiRNGs[link]
}

// samplePairPositions selects count positions from {1..n-1} such that no two
// are adjacent (positions c and c+1 overlap in links). Sampling is uniform
// over valid sets via rejection; the fallback after excessive rejections is
// the deterministic densest packing, which can only trigger for pair counts
// near the theoretical maximum.
func samplePairPositions(rng interface{ IntN(int) int }, n, count int) []int {
	if count == 1 {
		return []int{1 + rng.IntN(n-1)}
	}
	const maxAttempts = 256
attempt:
	for a := 0; a < maxAttempts; a++ {
		chosen := make(map[int]bool, count)
		for len(chosen) < count {
			chosen[1+rng.IntN(n-1)] = true
		}
		positions := make([]int, 0, count)
		for c := 1; c < n; c++ {
			if chosen[c] {
				positions = append(positions, c)
			}
		}
		for i := 1; i < len(positions); i++ {
			if positions[i]-positions[i-1] < 2 {
				continue attempt
			}
		}
		return positions
	}
	positions := make([]int, count)
	for i := range positions {
		positions[i] = 1 + 2*i
	}
	return positions
}

// computeBackoffs assigns the Eq. 6 backoff counters generalized to multiple
// pairs: walking priorities from highest to lowest, each non-candidate link
// takes the next free counter value, and each pair reserves a window of four
// values {v, v+1, v+2, v+3} with
//
//	down ∈ {v   (ξ=+1), v+2 (ξ=−1)},  up ∈ {v+1 (ξ=+1), v+3 (ξ=−1)}.
//
// For a single pair at priority C this reduces exactly to Eq. 6, and the
// assignment is injective, which makes the protocol collision-free.
func (p *Protocol) computeBackoffs(n int) []int {
	p.ensureInv()
	if cap(p.backoffs) < n {
		p.backoffs = make([]int, n)
	}
	backoffs := p.backoffs[:n]
	// pairStartingAt finds the active pair anchored at priority pr; the pair
	// count is tiny (1 in the paper, ≤ N/2 with Remark 6), so a linear scan
	// beats a map.
	pairStartingAt := func(pr int) *pairState {
		for i := range p.active {
			if p.active[i].c == pr {
				return &p.active[i]
			}
		}
		return nil
	}
	v := 0
	pr := 1
	for pr <= n {
		if ps := pairStartingAt(pr); ps != nil {
			if ps.xiDown == 1 {
				backoffs[ps.down] = v
			} else {
				backoffs[ps.down] = v + 2
			}
			if ps.xiUp == 1 {
				backoffs[ps.up] = v + 1
			} else {
				backoffs[ps.up] = v + 3
			}
			v += 4
			pr += 2
			continue
		}
		backoffs[p.linkAt(pr)] = v
		v++
		pr++
	}
	return backoffs
}

// computeLocalBackoffs assigns per-neighborhood backoff counters: link n's
// counter is the number of links in its closed conflict neighborhood holding
// a strictly higher priority (lower σ value). Within any clique this is the
// paper's rank-based Eq. 6 assignment (minus swap windows), so counters stay
// injective among mutually-conflicting links; links in disjoint neighborhoods
// share early counter values and transmit concurrently — the spatial reuse a
// partial conflict graph affords.
func (p *Protocol) computeLocalBackoffs(n int) []int {
	if cap(p.backoffs) < n {
		p.backoffs = make([]int, n)
	}
	backoffs := p.backoffs[:n]
	for link := 0; link < n; link++ {
		rank := 0
		row := p.graph.ClosedRow(link)
		for w, word := range row {
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if j != link && p.prio[j] < p.prio[link] {
					rank++
				}
			}
		}
		backoffs[link] = rank
	}
	return backoffs
}

// sensingHook returns the carrier-sensing callback a candidate installs for
// the instant its backoff timer reaches one, or nil when the link's coin
// makes sensing irrelevant. The callback itself is the link's prebuilt
// senseFn; the pair it belongs to is looked up at sensing time (pair
// positions are non-adjacent, so a link is in at most one pair).
func (p *Protocol) sensingHook(link int) func(bool) {
	for i := range p.active {
		ps := &p.active[i]
		if (ps.down == link && ps.xiDown == -1) || (ps.up == link && ps.xiUp == 1) {
			return p.senseFns[link]
		}
	}
	return nil
}

// applySense records a candidate's carrier-sensing observation at the
// counter-one instant.
func (p *Protocol) applySense(link int, busy bool) {
	for i := range p.active {
		ps := &p.active[i]
		if ps.down == link && ps.xiDown == -1 {
			// Eq. 7: a down-tending candidate moves down iff the channel is
			// busy when its timer reaches one (it hears the up candidate).
			ps.downSensedBusy = busy
			return
		}
		if ps.up == link && ps.xiUp == 1 {
			// Eq. 8: an up-tending candidate arms the swap iff the channel
			// is idle when its timer reaches one (the down candidate is
			// conspicuously absent from its keep-slot).
			ps.upSensedIdle = !busy
			return
		}
	}
}

// fire is Step 6: when the timer expires the link transmits its buffered
// packets back-to-back until the interval ends or the buffer drains.
//
// A swap candidate whose data exchange no longer fits before the deadline
// falls back to an empty priority-claiming frame if that still fits: its
// transmission is the signal the partner's Eq. 7 sensing relies on, and
// without the fallback the two candidates could reach inconsistent
// conclusions (one swapping, the other not), breaking the bijectivity of σ.
func (p *Protocol) fire(ctx *mac.Context, link int) bool {
	started := false
	if ctx.Pending(link) > 0 {
		started = ctx.TransmitData(link, p.dataDoneFns[link])
		if !started && !p.local && p.isCandidate(link) {
			started = ctx.ForceEmptyFrame(link, nil)
		}
	} else if ctx.HasEmptyFrame(link) {
		started = ctx.TransmitEmpty(link, nil)
	}
	if started {
		p.markStarted(link)
	}
	return started
}

func (p *Protocol) continueChain(ctx *mac.Context, link int) {
	if ctx.Pending(link) > 0 {
		ctx.TransmitData(link, p.dataDoneFns[link])
	}
}

// reportOutcome feeds a data-transmission result to policies that learn
// channel reliability from their own ACKs.
func (p *Protocol) reportOutcome(link int, delivered bool) {
	if obs, ok := p.policy.(OutcomeObserver); ok {
		obs.ObserveOutcome(link, delivered)
	}
}

func (p *Protocol) isCandidate(link int) bool {
	for i := range p.active {
		if p.active[i].down == link || p.active[i].up == link {
			return true
		}
	}
	return false
}

func (p *Protocol) markStarted(link int) {
	for i := range p.active {
		if p.active[i].up == link {
			p.active[i].upStarted = true
		}
	}
}

// EndInterval implements mac.Protocol: commit the priority exchanges that
// both candidates confirmed (Eqs. 7–8); changes take effect from the next
// interval, as in Algorithm 2.
func (p *Protocol) EndInterval(ctx *mac.Context) {
	for i := range p.active {
		ps := &p.active[i]
		var swap bool
		if p.local {
			// Per-neighborhood mode: the candidates of a pair may not share a
			// neighborhood, so the Eq. 7/8 sensing handshake carries no signal.
			// The swap commits on the coins alone.
			swap = ps.xiDown == -1 && ps.xiUp == 1
		} else {
			swapDown := ps.xiDown == -1 && ps.downSensedBusy
			swapUp := ps.xiUp == 1 && ps.upSensedIdle && ps.upStarted
			if swapDown != swapUp {
				// By construction these two local decisions observe the same
				// boundary events; disagreement means the simulation violated
				// the protocol's coordination invariant.
				panic(fmt.Sprintf(
					"core: inconsistent swap at priority %d: down(link %d)=%v up(link %d)=%v",
					ps.c, ps.down, swapDown, ps.up, swapUp))
			}
			swap = swapDown
		}
		if swap {
			// In-place adjacent transposition (what SwapAtPriority does,
			// minus the clone), with the inverse kept in lockstep.
			p.prio[ps.down] = ps.c + 1
			p.prio[ps.up] = ps.c
			p.inv[ps.c-1] = ps.up
			p.inv[ps.c] = ps.down
			p.swaps++
		}
		ctx.NoteSwap(ps.c, ps.down, ps.up, swap)
	}
	p.active = p.active[:0]
}

func clampMu(mu float64) float64 {
	if mu < minMu {
		return minMu
	}
	if mu > 1-minMu {
		return 1 - minMu
	}
	return mu
}

var _ mac.Protocol = (*Protocol)(nil)
