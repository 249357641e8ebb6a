package rtmac

import (
	"fmt"
	"io"

	"rtmac/internal/journey"
)

// Journey is one packet's recorded lifecycle: identity (interval, link,
// arrival index), the contention rounds its link entered, every transmission
// attempt with its channel outcome, and the terminal cause — delivered, or a
// deadline miss attributed to exactly one of expired-in-queue,
// lost-to-channel, lost-to-collision, never-won-contention.
type Journey = journey.Journey

// Attribution tallies terminal causes over recorded journeys. Its invariant:
// Total = Delivered + Missed(), exactly.
type Attribution = journey.Attribution

// DebtPoint is one interval's entry in a link's debt timeline.
type DebtPoint = journey.DebtPoint

// DecodeJourneys parses a journeys JSONL stream produced by EnableJourneys,
// stopping at the first malformed line.
func DecodeJourneys(r io.Reader) ([]Journey, error) { return journey.Decode(r) }

// Journeys is the packet-journey tracer attached to a simulation.
type Journeys struct {
	t *journey.Tracer
}

// EnableJourneys starts sampled per-packet lifecycle tracing: every
// sample-th arriving packet (1 = all) is followed from arrival through
// contention and transmission attempts to delivery or attributed expiry, and
// streamed as one JSONL line when it terminates. w may be nil to keep only
// the in-memory attribution tallies and per-link debt timelines. Call before
// Run and Flush when the run completes. With sample == 1 the attribution
// reconciles exactly with the delivered/expired totals. A simulation has
// one tracer: a second call returns an error.
func (s *Simulation) EnableJourneys(w io.Writer, sample int) (*Journeys, error) {
	if s.journeys != nil {
		return nil, fmt.Errorf("rtmac: journeys already enabled")
	}
	t, err := journey.NewTracer(s.nw.Links(), w, sample)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	if err := s.nw.SetJourneyTracer(t); err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	s.journeys = t
	return &Journeys{t: t}, nil
}

// Flush drains the JSONL buffer and returns the first stream error, if any.
func (j *Journeys) Flush() error { return j.t.Flush() }

// Count returns how many journeys were written to the stream so far.
func (j *Journeys) Count() int64 { return j.t.Count() }

// Seen returns how many packet arrivals were observed, sampled or not.
func (j *Journeys) Seen() int64 { return j.t.Seen() }

// Attribution returns the network-wide terminal-cause tally.
func (j *Journeys) Attribution() Attribution { return j.t.Attribution() }

// LinkAttribution returns one link's terminal-cause tally.
func (j *Journeys) LinkAttribution(link int) (Attribution, error) {
	return j.t.LinkAttribution(link)
}

// Timeline returns a chronological copy of one link's debt timeline: the
// most recent intervals' post-update debts annotated with the interval's
// wins, losses, collisions and committed priority swaps.
func (j *Journeys) Timeline(link int) ([]DebtPoint, error) { return j.t.Timeline(link) }

// Swaps returns how many intervals committed a priority swap promoting
// (up) and demoting (down) the link.
func (j *Journeys) Swaps(link int) (up, down int64, err error) { return j.t.Swaps(link) }
