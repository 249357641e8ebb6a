// Package journey records sampled per-packet lifecycles from a running
// simulation: each packet's causal span from arrival through queueing, the
// contention rounds its link entered (backoff drawn, carrier-sense outcome,
// whether the link fired), every transmission attempt with its channel
// outcome, and a terminal classification — delivered, or a deadline miss
// attributed to exactly one cause. It also keeps per-link debt-ledger
// timelines (ring-buffered d(k) trajectories annotated with the interval's
// wins, losses, collisions and committed priority swaps), making pathwise
// debt dynamics — FCSMA's debt saturation, DB-DP's Glauber-driven recovery —
// directly inspectable.
//
// The package answers the question run-level telemetry cannot: *why* a given
// packet missed its deadline. Attribution is exhaustive and exclusive, so
// per-cause counters reconcile exactly with delivered/expired totals (see
// Attribution.Reconciles), the property the reconciliation tests pin.
package journey

import (
	"fmt"
	"io"

	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Terminal causes. Every recorded packet ends in exactly one.
const (
	// CauseDelivered: the packet was delivered and acknowledged in time.
	CauseDelivered = "delivered"
	// CauseExpiredInQueue: the packet expired without a transmission attempt
	// while its link never entered contention after it became head-of-line —
	// the link was never scheduled, or no exchange fit before the deadline.
	CauseExpiredInQueue = "expired-in-queue"
	// CauseLostToChannel: the last transmission attempt was erased by the
	// unreliable channel (Bernoulli loss) and the deadline hit first.
	CauseLostToChannel = "lost-to-channel"
	// CauseLostToCollision: the last transmission attempt was destroyed by
	// overlap with another transmission.
	CauseLostToCollision = "lost-to-collision"
	// CauseNeverWonContention: the link entered contention at least once
	// while the packet waited but never captured the channel for it.
	CauseNeverWonContention = "never-won-contention"
)

// Causes lists every terminal cause in canonical (reporting) order.
func Causes() []string {
	return []string{
		CauseDelivered,
		CauseExpiredInQueue,
		CauseLostToChannel,
		CauseLostToCollision,
		CauseNeverWonContention,
	}
}

// ValidCause reports whether s is one of the terminal causes.
func ValidCause(s string) bool {
	switch s {
	case CauseDelivered, CauseExpiredInQueue, CauseLostToChannel,
		CauseLostToCollision, CauseNeverWonContention:
		return true
	}
	return false
}

// Attempt outcome strings (the medium.Outcome names).
const (
	outcomeDelivered = "delivered"
	outcomeLost      = "lost"
	outcomeCollided  = "collided"
)

// Attempt is one data transmission serving the packet.
type Attempt struct {
	Start   sim.Time `json:"start"`
	End     sim.Time `json:"end"`
	Outcome string   `json:"outcome"` // delivered | lost | collided
}

// Round is one contention round the packet's link entered while the packet
// waited: the initial backoff drawn, the carrier-sense observation at the
// counter-one instant (if any), and whether the link's counter reached zero
// (Fired) and actually put a frame on the air (Started). Protocols that run
// their own contention (FCSMA's per-round draws) report rounds without
// sense/fire detail.
type Round struct {
	Backoff int  `json:"backoff"`
	Sense   int  `json:"sense"` // -1 no observation, 0 sensed idle, 1 sensed busy
	Fired   bool `json:"fired,omitempty"`
	Started bool `json:"started,omitempty"`
}

// Journey is one packet's recorded lifecycle. Packets are identified by
// (K, Link, Idx): the Idx-th arrival of the link in interval K; Seq is the
// global arrival sequence number driving the sampling decision. Rounds are
// link-level context: the contention rounds the link entered between the
// packet's arrival and its terminal instant (packets of one link and
// interval share their link's rounds).
type Journey struct {
	Seq      int64     `json:"seq"`
	K        int64     `json:"k"`
	Link     int       `json:"link"`
	Idx      int       `json:"idx"`
	Arrived  sim.Time  `json:"arrived"`
	Deadline sim.Time  `json:"deadline"`
	Prio     int       `json:"prio,omitempty"` // 1-based priority held (DP family), 0 when n/a
	Cause    string    `json:"cause"`
	DoneAt   sim.Time  `json:"done,omitempty"`  // delivery instant
	Delay    sim.Time  `json:"delay,omitempty"` // DoneAt - Arrived
	Rounds   []Round   `json:"rounds,omitempty"`
	Attempts []Attempt `json:"attempts,omitempty"`

	// roundsAtDone is the number of link rounds recorded at the delivery
	// instant, so a delivered journey is rendered with the rounds that
	// preceded it rather than the whole interval's.
	roundsAtDone int
}

// classify attributes an expired packet's deadline miss. Exhaustive and
// exclusive by construction: attempts dominate (the last one names the loss
// mechanism), then contention participation, then queue expiry.
func classify(attempts []Attempt, rounds []Round) string {
	if n := len(attempts); n > 0 {
		if attempts[n-1].Outcome == outcomeCollided {
			return CauseLostToCollision
		}
		return CauseLostToChannel
	}
	if len(rounds) > 0 {
		return CauseNeverWonContention
	}
	return CauseExpiredInQueue
}

// Validate checks the structural invariants every recorded journey satisfies;
// tracequery's check mode runs it over dumped streams so a malformed span
// fails CI instead of silently corrupting downstream analysis.
func (j *Journey) Validate() error {
	if j.Seq < 0 || j.K < 0 || j.Link < 0 || j.Idx < 0 {
		return fmt.Errorf("journey seq %d: negative identity (k=%d link=%d idx=%d)",
			j.Seq, j.K, j.Link, j.Idx)
	}
	if j.Deadline <= j.Arrived {
		return fmt.Errorf("journey seq %d: deadline %v not after arrival %v",
			j.Seq, j.Deadline, j.Arrived)
	}
	if !ValidCause(j.Cause) {
		return fmt.Errorf("journey seq %d: unknown cause %q", j.Seq, j.Cause)
	}
	prev := j.Arrived
	for i, a := range j.Attempts {
		if a.Start < prev || a.End <= a.Start || a.End > j.Deadline {
			return fmt.Errorf("journey seq %d: attempt %d span [%v, %v] outside [%v, %v] or overlapping",
				j.Seq, i, a.Start, a.End, j.Arrived, j.Deadline)
		}
		switch a.Outcome {
		case outcomeDelivered, outcomeLost, outcomeCollided:
		default:
			return fmt.Errorf("journey seq %d: attempt %d has unknown outcome %q", j.Seq, i, a.Outcome)
		}
		if a.Outcome == outcomeDelivered && i != len(j.Attempts)-1 {
			return fmt.Errorf("journey seq %d: delivery at attempt %d is not terminal", j.Seq, i)
		}
		prev = a.End
	}
	for i, r := range j.Rounds {
		if r.Backoff < 0 || r.Sense < -1 || r.Sense > 1 {
			return fmt.Errorf("journey seq %d: round %d malformed (backoff=%d sense=%d)",
				j.Seq, i, r.Backoff, r.Sense)
		}
	}
	switch j.Cause {
	case CauseDelivered:
		n := len(j.Attempts)
		if n == 0 || j.Attempts[n-1].Outcome != outcomeDelivered {
			return fmt.Errorf("journey seq %d: delivered without a delivering attempt", j.Seq)
		}
		if j.DoneAt != j.Attempts[n-1].End || j.Delay != j.DoneAt-j.Arrived {
			return fmt.Errorf("journey seq %d: delivery instant %v / delay %v disagree with last attempt end %v",
				j.Seq, j.DoneAt, j.Delay, j.Attempts[n-1].End)
		}
	case CauseLostToChannel:
		n := len(j.Attempts)
		if n == 0 || j.Attempts[n-1].Outcome != outcomeLost {
			return fmt.Errorf("journey seq %d: cause %s without a final lost attempt", j.Seq, j.Cause)
		}
	case CauseLostToCollision:
		n := len(j.Attempts)
		if n == 0 || j.Attempts[n-1].Outcome != outcomeCollided {
			return fmt.Errorf("journey seq %d: cause %s without a final collided attempt", j.Seq, j.Cause)
		}
	case CauseNeverWonContention:
		if len(j.Attempts) != 0 || len(j.Rounds) == 0 {
			return fmt.Errorf("journey seq %d: cause %s needs rounds and no attempts (%d rounds, %d attempts)",
				j.Seq, j.Cause, len(j.Rounds), len(j.Attempts))
		}
	case CauseExpiredInQueue:
		if len(j.Attempts) != 0 {
			return fmt.Errorf("journey seq %d: cause %s with %d attempts", j.Seq, j.Cause, len(j.Attempts))
		}
	}
	if j.Cause != CauseDelivered && (j.DoneAt != 0 || j.Delay != 0) {
		return fmt.Errorf("journey seq %d: undelivered packet carries delivery instant", j.Seq)
	}
	return nil
}

// Attribution aggregates terminal causes. The invariant the reconciliation
// tests pin: Total = Delivered + the four miss causes, exactly.
type Attribution struct {
	Total           int64 `json:"total"`
	Delivered       int64 `json:"delivered"`
	ExpiredInQueue  int64 `json:"expired_in_queue"`
	LostToChannel   int64 `json:"lost_to_channel"`
	LostToCollision int64 `json:"lost_to_collision"`
	NeverWon        int64 `json:"never_won_contention"`
}

// Add counts one terminal cause.
func (a *Attribution) Add(cause string) {
	a.Total++
	switch cause {
	case CauseDelivered:
		a.Delivered++
	case CauseExpiredInQueue:
		a.ExpiredInQueue++
	case CauseLostToChannel:
		a.LostToChannel++
	case CauseLostToCollision:
		a.LostToCollision++
	case CauseNeverWonContention:
		a.NeverWon++
	}
}

// Count returns the tally of one cause.
func (a Attribution) Count(cause string) int64 {
	switch cause {
	case CauseDelivered:
		return a.Delivered
	case CauseExpiredInQueue:
		return a.ExpiredInQueue
	case CauseLostToChannel:
		return a.LostToChannel
	case CauseLostToCollision:
		return a.LostToCollision
	case CauseNeverWonContention:
		return a.NeverWon
	}
	return 0
}

// Missed returns the number of deadline misses across all causes.
func (a Attribution) Missed() int64 {
	return a.ExpiredInQueue + a.LostToChannel + a.LostToCollision + a.NeverWon
}

// Reconciles reports whether the per-cause tallies sum exactly to the total.
func (a Attribution) Reconciles() bool {
	return a.Total == a.Delivered+a.Missed()
}

// Merge folds b into a.
func (a *Attribution) Merge(b Attribution) {
	a.Total += b.Total
	a.Delivered += b.Delivered
	a.ExpiredInQueue += b.ExpiredInQueue
	a.LostToChannel += b.LostToChannel
	a.LostToCollision += b.LostToCollision
	a.NeverWon += b.NeverWon
}

// Decode parses a journeys JSONL stream (one Journey per line, as written by
// the Tracer), stopping at the first malformed line and, when validate is
// set, at the first journey whose spans break an invariant (Validate); the
// error names the line. A leading schema header is validated and skipped;
// headerless legacy streams decode as before.
func Decode(r io.Reader, validate bool) ([]Journey, error) {
	var out []Journey
	_, err := telemetry.ReadJSONL(r, telemetry.JourneyStreamSchema, telemetry.JourneyStreamVersion,
		"journey: decode journey", func(j Journey) error {
			out = append(out, j)
			if validate {
				return j.Validate()
			}
			return nil
		})
	return out, err
}
