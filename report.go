package rtmac

import (
	"fmt"
	"strings"
)

// LinkReport summarizes one link's performance.
type LinkReport struct {
	// Required is q_n, the timely-throughput requirement.
	Required float64
	// Throughput is the empirical timely-throughput (deliveries/interval).
	Throughput float64
	// Deficiency is (Required − Throughput)⁺ (Definition 1 of the paper).
	Deficiency float64
	// DeliveryRatio is delivered/arrived.
	DeliveryRatio float64
}

// ChannelReport summarizes channel-level counters.
type ChannelReport struct {
	// Transmissions counts all started transmissions, empty frames included.
	Transmissions int
	// EmptyFrames counts priority-claiming frames.
	EmptyFrames int
	// Deliveries and Losses count data outcomes; Collisions counts
	// transmissions destroyed by overlap.
	Deliveries, Losses, Collisions int
	// BusyShare is the fraction of simulated time the channel was occupied.
	BusyShare float64
	// DataShare, EmptyShare and CollidedShare split simulated time by what
	// the channel carried: clean data exchanges, clean priority-claiming
	// frames, and airtime destroyed by overlap (summed per transmission, so
	// CollidedShare can exceed the wall-clock span of the collisions).
	DataShare, EmptyShare, CollidedShare float64
}

// Report is a full summary of a simulation so far.
type Report struct {
	Protocol  string
	Intervals int64
	// TotalDeficiency is the paper's headline metric Σ_n (q_n − tput_n)⁺.
	TotalDeficiency float64
	Links           []LinkReport
	Channel         ChannelReport
}

// Report summarizes the simulation's progress so far.
func (s *Simulation) Report() Report {
	n := s.col.Links()
	links := make([]LinkReport, n)
	for i := 0; i < n; i++ {
		links[i] = LinkReport{
			Required:      s.req[i],
			Throughput:    s.col.Throughput(i),
			Deficiency:    s.col.Deficiency(i),
			DeliveryRatio: s.col.DeliveryRatio(i),
		}
	}
	st := s.nw.Medium().Stats()
	busyShare, dataShare, emptyShare, collidedShare := s.nw.Medium().Airtime().Shares(s.nw.Engine().Now())
	return Report{
		Protocol:        s.prot.Name(),
		Intervals:       s.col.Intervals(),
		TotalDeficiency: s.col.TotalDeficiency(),
		Links:           links,
		Channel: ChannelReport{
			Transmissions: st.Transmissions,
			EmptyFrames:   st.EmptyFrames,
			Deliveries:    st.Deliveries,
			Losses:        st.Losses,
			Collisions:    st.Collisions,
			BusyShare:     busyShare,
			DataShare:     dataShare,
			EmptyShare:    emptyShare,
			CollidedShare: collidedShare,
		},
	}
}

// TotalDeficiency is a shortcut for Report().TotalDeficiency.
func (s *Simulation) TotalDeficiency() float64 { return s.col.TotalDeficiency() }

// String renders the report as an aligned text block.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol %s: %d intervals, total deficiency %.4f packets/interval\n",
		r.Protocol, r.Intervals, r.TotalDeficiency)
	fmt.Fprintf(&b, "channel: %d transmissions (%d empty), %d delivered, %d lost, %d collided, %.1f%% busy\n",
		r.Channel.Transmissions, r.Channel.EmptyFrames, r.Channel.Deliveries,
		r.Channel.Losses, r.Channel.Collisions, 100*r.Channel.BusyShare)
	fmt.Fprintf(&b, "airtime: %.1f%% data, %.1f%% empty frames, %.1f%% collided\n",
		100*r.Channel.DataShare, 100*r.Channel.EmptyShare, 100*r.Channel.CollidedShare)
	fmt.Fprintf(&b, "%4s  %9s  %10s  %10s  %7s\n", "link", "required", "throughput", "deficiency", "ratio")
	for i, l := range r.Links {
		fmt.Fprintf(&b, "%4d  %9.4f  %10.4f  %10.4f  %6.2f%%\n",
			i, l.Required, l.Throughput, l.Deficiency, 100*l.DeliveryRatio)
	}
	return b.String()
}
