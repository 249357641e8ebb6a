package rtmac_test

import (
	"math"
	"testing"

	"rtmac"
)

// FuzzConfig builds rtmac.Config values directly, bypassing the scenario
// loader: link count, per-link SuccessProb and DeliveryRatio, the Bernoulli
// arrival rate, the protocol, Perturb, SnapshotEvery, a conflict graph drawn
// from edge bytes, a CustomProfile from payload, PHY rate and deadline, and
// an SLO miss budget. CustomProfile, NewSimulation, EnableMonitor, a short
// Run and CheckFeasibility may reject a configuration with an error but must
// never panic, and a budget outside [0, 1] (NaN included) must be rejected.
// Every simulation that builds runs under the strict monitor.
//
// links is taken modulo 33, protocol modulo 7 (the six policies and the zero
// Protocol), and graph modulo 4: no graph, NewConflictGraph over graphLinks
// links (modulo 34) with edges read as byte pairs modulo graphLinks+2 so that
// some endpoints are out of range, CompleteConflicts(graphLinks), or the zero
// ConflictGraph. A link count of zero, a rate whose BernoulliArrivals fails
// (leaving the zero Arrivals) and a graph sized for another link count are
// all in reach. A profile CustomProfile rejects (the zero payload, rate and
// deadline of the first nine seeds included), or one whose deadline is
// longer than the video profile's 20 ms (to keep runs short), falls back to
// ControlProfile.
func FuzzConfig(f *testing.F) {
	f.Add(uint64(1), uint8(10), 0.7, 0.99, 0.78, uint8(0), false, int64(0), 0, 0, 0, uint8(0), uint8(0), []byte(nil), 0, 0.0, int64(0), 0.0)
	f.Add(uint64(2), uint8(4), 0.5, 0.9, 0.5, uint8(1), true, int64(2), 1, 3, 1, uint8(1), uint8(4), []byte{0, 1, 1, 2, 2, 3}, 0, 0.0, int64(0), 0.0)
	f.Add(uint64(3), uint8(5), 1.0, 1.0, 1.0, uint8(2), true, int64(-1), 7, -2, -3, uint8(2), uint8(5), []byte(nil), 0, 0.0, int64(0), 0.0)
	f.Add(uint64(4), uint8(3), math.NaN(), 0.5, 0.5, uint8(3), false, int64(0), 0, 0, 0, uint8(1), uint8(4), []byte{0, 0}, 0, 0.0, int64(0), 0.0)
	f.Add(uint64(5), uint8(6), 0.7, math.Inf(1), 0.5, uint8(4), false, int64(0), 0, 0, 0, uint8(2), uint8(0), []byte(nil), 0, 0.0, int64(0), 0.0)
	f.Add(uint64(6), uint8(2), -0.5, 0.5, 1.5, uint8(5), false, int64(0), 0, 0, 0, uint8(3), uint8(0), []byte(nil), 0, 0.0, int64(0), 0.0)
	f.Add(uint64(7), uint8(0), 0.7, 0.9, 0.5, uint8(6), true, int64(math.MaxInt64), math.MaxInt, math.MaxInt, math.MinInt, uint8(0), uint8(0), []byte(nil), 0, 0.0, int64(0), 0.0)
	f.Add(uint64(8), uint8(32), 0.0, 0.0, 0.0, uint8(0), false, int64(0), 0, 0, 1, uint8(1), uint8(33), []byte{0, 31, 5, 6, 200, 7}, 0, 0.0, int64(0), 0.0)
	f.Add(uint64(9), uint8(4), 0.9, 0.9, 0.5, uint8(0), false, int64(0), 0, 0, 0, uint8(3), uint8(0), []byte(nil), 0, 0.0, int64(0), 0.0)
	f.Add(uint64(10), uint8(4), 0.9, 0.9, 0.5, uint8(0), false, int64(0), 0, 0, 0, uint8(0), uint8(0), []byte(nil),
		math.MaxInt, 54.0, int64(2000), 0.0)
	f.Add(uint64(11), uint8(4), 0.9, 0.9, 0.5, uint8(0), false, int64(0), 0, 0, 0, uint8(0), uint8(0), []byte(nil),
		100, math.NaN(), int64(2000), 0.0)
	f.Add(uint64(12), uint8(4), 0.9, 0.9, 0.5, uint8(1), false, int64(0), 0, 0, 0, uint8(0), uint8(0), []byte(nil),
		1500, 54.0, int64(20000), math.NaN())
	f.Fuzz(func(t *testing.T, seed uint64, links uint8, successProb, deliveryRatio, rate float64,
		protocol uint8, perturb bool, perturbK int64, perturbLink, perturbExtra, snapshotEvery int,
		graph, graphLinks uint8, edgeBytes []byte, payload int, phyRate float64, deadline int64, budget float64) {
		n := int(links % 33)
		arrivals, err := rtmac.BernoulliArrivals(rate)
		if err != nil {
			arrivals = rtmac.Arrivals{}
		}
		profile, err := rtmac.CustomProfile("fuzz", payload, phyRate, rtmac.Time(deadline))
		if err != nil || profile.Interval() > 20*rtmac.Millisecond {
			profile = rtmac.ControlProfile()
		}
		cfg := rtmac.Config{
			Seed:          seed,
			Profile:       profile,
			Links:         make([]rtmac.Link, n),
			SnapshotEvery: snapshotEvery,
			SLO:           &rtmac.SLOConfig{Budget: budget},
		}
		for i := range cfg.Links {
			cfg.Links[i] = rtmac.Link{SuccessProb: successProb, Arrivals: arrivals, DeliveryRatio: deliveryRatio}
		}
		switch protocol % 7 {
		case 0:
			cfg.Protocol = rtmac.DBDP()
		case 1:
			cfg.Protocol = rtmac.LDF()
		case 2:
			cfg.Protocol = rtmac.FCSMA()
		case 3:
			cfg.Protocol = rtmac.FrameCSMA()
		case 4:
			cfg.Protocol = rtmac.TDMA()
		case 5:
			cfg.Protocol = rtmac.DCF()
		}
		if perturb {
			cfg.Perturb = &rtmac.Perturbation{K: perturbK, Link: perturbLink, Extra: perturbExtra}
		}
		gl := int(graphLinks % 34)
		switch graph % 4 {
		case 1:
			var edges [][2]int
			for i := 0; i+1 < len(edgeBytes); i += 2 {
				edges = append(edges, [2]int{int(edgeBytes[i]) % (gl + 2), int(edgeBytes[i+1]) % (gl + 2)})
			}
			if g, err := rtmac.NewConflictGraph(gl, edges); err == nil {
				cfg.Conflicts = g
			}
		case 2:
			if g, err := rtmac.CompleteConflicts(gl); err == nil {
				cfg.Conflicts = g
			}
		case 3:
			cfg.Conflicts = &rtmac.ConflictGraph{}
		}
		if s, err := rtmac.NewSimulation(cfg); err == nil {
			if !(budget >= 0 && budget <= 1) {
				t.Fatalf("SLO miss budget %v accepted", budget)
			}
			if _, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true}); err != nil {
				t.Fatalf("EnableMonitor on a built simulation: %v", err)
			}
			_ = s.Run(3)
		}
		_, _ = rtmac.CheckFeasibility(cfg, 5)
	})
}
