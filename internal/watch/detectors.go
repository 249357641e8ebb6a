package watch

import (
	"fmt"
	"math"

	"rtmac/internal/sim"
)

// ---------------------------------------------------------------------------
// Detector state machines. Each runs once per interval under e.mu, fires with
// hysteresis (resolve levels sit at half the firing level so a statistic
// hovering at the threshold cannot flap), and allocates only on transitions.
// ---------------------------------------------------------------------------

// ewmaAlpha is the classic span-to-smoothing conversion: an EWMA with
// α = 2/(W+1) has the same center of mass as a W-interval sliding window.
func ewmaAlpha(window int) float64 { return 2 / (float64(window) + 1) }

// observeBurn advances link i's deadline-miss burn-rate detector. The burn
// statistic is (q − ewma)/(Budget·q): 1 means the link's sustained delivery
// shortfall exactly consumes the allowed miss budget. Both the fast and the
// slow EWMA must burn ≥ 1 — the multi-window guard — and the link must carry
// real debt (> burnDebtFloor), so a link that is underserved only because it
// has nothing to send never fires.
func (e *Engine) observeBurn(i int, k int64, at sim.Time) {
	st := &e.links[i]
	if st.q <= 0 {
		return
	}
	d := float64(e.delivered[i])
	st.ewmaFast += ewmaAlpha(burnFastWindow) * (d - st.ewmaFast)
	st.ewmaSlow += ewmaAlpha(burnSlowWindow) * (d - st.ewmaSlow)
	if e.intervals < int64(burnSlowWindow) {
		return // priming: the slow EWMA has not seen a full window yet
	}
	allowed := e.cfg.Budget * st.q
	if allowed < burnMinShortfall {
		allowed = burnMinShortfall
	}
	fast := (st.q - st.ewmaFast) / allowed
	slow := (st.q - st.ewmaSlow) / allowed
	burn := math.Min(fast, slow)
	if !st.burnFiring {
		if fast >= 1 && slow >= 1 && st.debt > burnDebtFloor {
			st.burnFiring = true
			e.record(Alert{
				Detector: DetectorBurnRate, Severity: SeverityCritical,
				State: StateFiring, K: k, At: at, Link: i, Scope: ScopeLink,
				Value: burn, Threshold: 1, Window: int64(burnSlowWindow),
				Msg: fmt.Sprintf("link %d burning %.2fx its deadline-miss budget (ewma %.3f < q %.3f, d+ %.1f)",
					i, burn, st.ewmaSlow, st.q, st.debt),
			})
		}
	} else if fast < 0.5 && slow < 0.5 {
		st.burnFiring = false
		e.record(Alert{
			Detector: DetectorBurnRate, Severity: SeverityCritical,
			State: StateResolved, K: k, At: at, Link: i, Scope: ScopeLink,
			Value: burn, Threshold: 0.5, Window: int64(burnSlowWindow),
			Msg: fmt.Sprintf("link %d burn rate back under half budget (ewma %.3f, q %.3f)",
				i, st.ewmaSlow, st.q),
		})
	}
}

// observeCUSUM advances link i's delivery-ratio change-point detector. Each
// cusumBatch intervals pool into one sample x = delivered/attempts — batching
// averages the near-Bernoulli per-interval ratio into approximately Gaussian
// evidence, which is what gives the CUSUM its long in-control run length. The
// first cusumWarmup batches establish the link's own baseline (Welford
// mean/variance, then frozen); afterwards the one-sided standardized CUSUM
// s ← max(0, s + (μ−x)/σ − k) accumulates downward surprise. Batches without
// attempts carry no channel evidence and are skipped.
func (e *Engine) observeCUSUM(i int, k int64, at sim.Time) {
	st := &e.links[i]
	st.csBatchN++
	st.csBatchD += e.delivered[i]
	st.csBatchA += e.attempts[i]
	if st.csBatchN < cusumBatch {
		return
	}
	attempts, delivered := st.csBatchA, st.csBatchD
	st.csBatchN, st.csBatchD, st.csBatchA = 0, 0, 0
	if attempts == 0 {
		return
	}
	x := float64(delivered) / float64(attempts)
	if st.csCount < int64(cusumWarmup) {
		st.csCount++
		delta := x - st.csMean
		st.csMean += delta / float64(st.csCount)
		st.csM2 += delta * (x - st.csMean)
		return
	}
	st.csSamples++
	sigma := 0.0
	if st.csCount > 1 {
		sigma = math.Sqrt(st.csM2 / float64(st.csCount-1))
	}
	if sigma < 0.05 {
		sigma = 0.05 // deterministic links: still demand a real drop
	}
	st.cusum += (st.csMean-x)/sigma - cusumAllowance
	if st.cusum < 0 {
		st.cusum = 0
	}
	h := cusumThreshold
	if !st.cusumFiring {
		if st.cusum > h {
			st.cusumFiring = true
			e.record(Alert{
				Detector: DetectorDeliveryCUSUM, Severity: SeverityWarning,
				State: StateFiring, K: k, At: at, Link: i, Scope: ScopeLink,
				Value: st.cusum, Threshold: h, Window: st.csSamples * int64(cusumBatch),
				Msg: fmt.Sprintf("link %d delivery ratio broke below its baseline %.3f (cusum %.1f > %.1f)",
					i, st.csMean, st.cusum, h),
			})
		}
	} else if st.cusum < h/2 {
		st.cusumFiring = false
		e.record(Alert{
			Detector: DetectorDeliveryCUSUM, Severity: SeverityWarning,
			State: StateResolved, K: k, At: at, Link: i, Scope: ScopeLink,
			Value: st.cusum, Threshold: h / 2, Window: st.csSamples * int64(cusumBatch),
			Msg: fmt.Sprintf("link %d delivery ratio back near its baseline %.3f", i, st.csMean),
		})
	}
}

// observeDrift feeds one d⁺ sample into a series and, at each non-overlapping
// window boundary, tests the least-squares slope. For equally spaced samples
// i = 0..W−1 the slope reduces to (ΣiY − ī·ΣY)/Σ(i−ī)² with ī = (W−1)/2 and
// Σ(i−ī)² = W(W²−1)/12, so the window needs only two running sums. Sustained
// positive drift of d⁺ is precisely what positive recurrence of the debt
// process forbids. A window is "hot" when its slope clears the threshold, its
// mean clears the debt floor, AND its mean exceeds the previous window's —
// a requirement vector at the capacity boundary makes d⁺ a near-critical
// reflected random walk whose excursions show transiently steep slopes, and
// only driftHotWindows windows of monotone growth separate an infeasible
// vector from a tight feasible one.
func (e *Engine) observeDrift(s *driftSeries, k int64, at sim.Time, total float64) {
	y := 0.0
	switch s.scope {
	case ScopeNetwork:
		y = total
	case ScopeNeighborhood:
		for _, m := range s.members {
			y += e.links[m].debt
		}
	default:
		y = e.links[s.link].debt
	}
	s.sumIY += float64(s.n) * y
	s.sumY += y
	s.n++
	w := driftWindow
	if s.n < w {
		return
	}
	fw := float64(w)
	mid := (fw - 1) / 2
	slope := (s.sumIY - mid*s.sumY) / (fw * (fw*fw - 1) / 12)
	mean := s.sumY / fw
	s.n, s.sumY, s.sumIY = 0, 0, 0

	floor := driftDebtFloor
	if s.scope != ScopeLink {
		// Aggregate series sum several links' debts; scale the floor so a
		// neighborhood of idle links plus noise cannot clear it.
		n := len(s.members)
		if s.scope == ScopeNetwork {
			n = e.cfg.Links
		}
		floor *= float64(n)
	}
	thr := driftSlope
	rising := mean > s.prevMean
	if slope > thr && mean > floor && rising {
		if s.hot == 0 {
			s.baseMean = s.prevMean
		}
		s.hot++
	} else if s.hot > 0 && (slope <= thr || !rising) {
		s.hot = 0
	}
	s.prevMean = mean
	need := driftHotWindows
	if !s.firing {
		if s.hot >= need && mean >= driftGrowth*s.baseMean {
			s.firing = true
			e.record(Alert{
				Detector: DetectorDebtDrift, Severity: SeverityCritical,
				State: StateFiring, K: k, At: at, Link: s.link, Scope: s.scope,
				Value: slope, Threshold: thr, Window: int64(need * w),
				Msg: fmt.Sprintf("%s d+ drifting +%.4f pkt/interval over %d intervals (window mean %.1f) — debt process not settling",
					s.subject(), slope, need*w, mean),
			})
		}
	} else if slope <= thr/2 {
		s.firing = false
		s.hot = 0
		e.record(Alert{
			Detector: DetectorDebtDrift, Severity: SeverityCritical,
			State: StateResolved, K: k, At: at, Link: s.link, Scope: s.scope,
			Value: slope, Threshold: thr / 2, Window: int64(w),
			Msg: fmt.Sprintf("%s d+ drift back to %.4f pkt/interval (window mean %.1f)",
				s.subject(), slope, mean),
		})
	}
}

func (s *driftSeries) subject() string {
	switch s.scope {
	case ScopeNetwork:
		return "network"
	case ScopeNeighborhood:
		return fmt.Sprintf("neighborhood of link %d (%d links)", s.link, len(s.members))
	default:
		return fmt.Sprintf("link %d", s.link)
	}
}

// observeSpike advances the expired-backlog spike detector. The baseline
// (mean/σ of the network-wide expired count) freezes after spikeWarmup
// intervals, so an injected divergence cannot poison its own reference; the
// +4-packet absolute guard keeps near-deterministic baselines (σ ≈ 0) from
// firing on single-packet noise.
func (e *Engine) observeSpike(expired float64, k int64, at sim.Time) {
	sp := &e.spike
	if sp.count < int64(spikeWarmup) {
		sp.count++
		delta := expired - sp.mean
		sp.mean += delta / float64(sp.count)
		sp.m2 += delta * (expired - sp.mean)
		return
	}
	sigma := math.Sqrt(sp.m2 / float64(sp.count-1))
	if sigma < 0.5 {
		sigma = 0.5
	}
	thr := sp.mean + spikeSigma*sigma + 4
	if !sp.firing {
		if expired > thr {
			sp.firing = true
			e.record(Alert{
				Detector: DetectorExpirySpike, Severity: SeverityWarning,
				State: StateFiring, K: k, At: at, Link: -1, Scope: ScopeNetwork,
				Value: expired, Threshold: thr, Window: 1,
				Msg: fmt.Sprintf("expired backlog spiked to %.0f (baseline %.1f, threshold %.1f)",
					expired, sp.mean, thr),
			})
		}
	} else if expired < sp.mean+(thr-sp.mean)/2 {
		sp.firing = false
		e.record(Alert{
			Detector: DetectorExpirySpike, Severity: SeverityWarning,
			State: StateResolved, K: k, At: at, Link: -1, Scope: ScopeNetwork,
			Value: expired, Threshold: sp.mean + (thr-sp.mean)/2, Window: 1,
			Msg: fmt.Sprintf("expired backlog back to %.0f (baseline %.1f)", expired, sp.mean),
		})
	}
}
