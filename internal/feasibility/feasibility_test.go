package feasibility

import (
	"math"
	"strings"
	"testing"
	"time"

	"rtmac/internal/arrival"
	"rtmac/internal/mac"
	"rtmac/internal/mac/fcsma"
	"rtmac/internal/medium"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
)

func fastProfile() phy.Profile {
	return phy.Profile{Name: "test", Slot: 1, DataAirtime: 10, EmptyAirtime: 2, Interval: 100}
}

// problem is the network config of n links with success probability p,
// perLink fixed arrivals and requirement q each, on the fully-interfering
// channel of a 10-slot profile.
func problem(t *testing.T, n int, p float64, perLink int, q float64) mac.NetworkConfig {
	t.Helper()
	av, err := arrival.Uniform(n, arrival.Deterministic{N: perLink})
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, n)
	req := make([]float64, n)
	for i := range probs {
		probs[i] = p
		req[i] = q
	}
	return mac.NetworkConfig{Profile: fastProfile(), SuccessProb: probs, Arrivals: av, Required: req}
}

// bounds runs NecessaryBounds and fails the test on a build error.
func bounds(t *testing.T, cfg mac.NetworkConfig) Bounds {
	t.Helper()
	b, err := NecessaryBounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestValidate checks that the bounds reject what mac.NewNetwork rejects:
// the checks validate a config by building its network.
func TestValidate(t *testing.T) {
	good := problem(t, 2, 0.8, 1, 0.9)
	if _, err := NecessaryBounds(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Required = []float64{1}
	if _, err := NecessaryBounds(bad); err == nil {
		t.Error("mismatched requirements accepted")
	}
	bad2 := good
	bad2.SuccessProb = []float64{0.8, 0}
	if _, err := NecessaryBounds(bad2); err == nil {
		t.Error("zero probability accepted")
	}
	bad3 := good
	bad3.Arrivals = nil
	if _, err := NecessaryBounds(bad3); err == nil {
		t.Error("nil arrivals accepted")
	}
}

func TestNecessaryBounds(t *testing.T) {
	// 10 slots per interval; 2 links, p=0.8, q=2 each ⇒ workload 5 ≤ 10: ok.
	if b := bounds(t, problem(t, 2, 0.8, 2, 2)); !b.OK || b.Reason != "" {
		t.Fatalf("feasible bounds rejected: %+v", b)
	}
	// q above arrival rate.
	if b := bounds(t, problem(t, 2, 0.8, 1, 1.5)); b.OK {
		t.Fatal("q > λ accepted")
	}
	// Workload above slots: 2 links, p=0.5, q=3 ⇒ 12 > 10.
	b := bounds(t, problem(t, 2, 0.5, 3, 3))
	if b.OK {
		t.Fatal("overloaded workload accepted")
	}
	if want := "feasibility: expected workload 12.000 slots exceeds 10 available per interval"; b.Reason != want {
		t.Fatalf("reason %q, want %q", b.Reason, want)
	}
}

// TestTotalWorkload checks that on the fully-interfering channel the one
// maximal clique is the whole network, so the workload is Σ q_n/p_n.
func TestTotalWorkload(t *testing.T) {
	if got := bounds(t, problem(t, 2, 0.5, 2, 1)).Workload; math.Abs(got-4) > 1e-12 {
		t.Fatalf("workload = %v, want 4", got)
	}
}

func TestProbeFeasible(t *testing.T) {
	p := problem(t, 2, 0.8, 2, 1.8)
	p.Seed = 1
	res, err := Probe(p, ProbeConfig{Intervals: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("comfortably feasible problem probed infeasible (deficiency %v)", res.Deficiency)
	}
}

func TestProbeInfeasible(t *testing.T) {
	// Workload 2·6/1 = 12 > 10 slots.
	p := problem(t, 2, 1, 6, 6)
	p.Seed = 1
	res, err := Probe(p, ProbeConfig{Intervals: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("overloaded problem probed feasible")
	}
	lb, err := maxDeficiencyLowerBound(problem(t, 2, 1, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deficiency < lb-0.3 {
		t.Fatalf("deficiency %v far below analytic lower bound %v", res.Deficiency, lb)
	}
}

func TestFrontierBracketsCapacity(t *testing.T) {
	// Deterministic 1 packet/link, p = 1, 2 links, 10 slots: any q = γ·1 with
	// γ ≤ 1 is trivially feasible (only 2 packets exist per interval) and
	// γ > 1 violates q ≤ λ. The frontier must come out ≈ 1.
	p := problem(t, 2, 1, 1, 1)
	p.Seed = 2
	gamma, err := Frontier(p, ProbeConfig{Intervals: 400}, 0.1, 2.0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if gamma < 0.95 || gamma > 1.05 {
		t.Fatalf("frontier γ = %v, want ≈ 1", gamma)
	}
}

func TestFrontierValidation(t *testing.T) {
	p := problem(t, 2, 1, 1, 1)
	if _, err := Frontier(p, ProbeConfig{}, 2, 1, 5); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestExpectedServiceSlots(t *testing.T) {
	// p = 1, 2 packets per link: subset {0} uses exactly 2 slots; subset
	// {0,1} exactly 4.
	p := problem(t, 2, 1, 2, 1)
	if one, _ := expectedServiceSlots(p, p.SuccessProb, []int{0}, 3, 500); math.Abs(one-2) > 1e-9 {
		t.Fatalf("single-link service slots %v, want 2", one)
	}
	if both, _ := expectedServiceSlots(p, p.SuccessProb, []int{0, 1}, 3, 500); math.Abs(both-4) > 1e-9 {
		t.Fatalf("two-link service slots %v, want 4", both)
	}
	// p = 0.5 doubles the expected cost: ≈ 4 slots for one link's 2 packets,
	// truncated at 10.
	lossy := problem(t, 2, 0.5, 2, 1)
	if est, _ := expectedServiceSlots(lossy, lossy.SuccessProb, []int{0}, 3, 20000); est < 3.5 || est > 4.3 {
		t.Fatalf("lossy service slots %v, want ≈ 4 (truncation keeps it near)", est)
	}
	// The standard error is zero without randomness and shrinks as
	// 1/√samples with it.
	if _, se := expectedServiceSlots(p, p.SuccessProb, []int{0, 1}, 3, 500); se != 0 {
		t.Fatalf("deterministic service has standard error %v, want 0", se)
	}
	_, se1 := expectedServiceSlots(lossy, lossy.SuccessProb, []int{0}, 3, 2000)
	_, se4 := expectedServiceSlots(lossy, lossy.SuccessProb, []int{0}, 3, 8000)
	if se1 <= 0 || se4 <= 0 || math.Abs(se1/se4-2) > 0.3 {
		t.Fatalf("standard errors %v at 2000 samples and %v at 8000, want a ratio near 2", se1, se4)
	}
}

// TestSubsetBoundToleratesSamplingNoise checks the margin of the subset
// scan on one lossy link whose capacity is estimated by Monte Carlo: a
// workload at the capacity passes, one 20% above it is still flagged.
func TestSubsetBoundToleratesSamplingNoise(t *testing.T) {
	tight := problem(t, 1, 0.5, 2, 1)
	tight.Seed = 5
	capacity, se := expectedServiceSlots(tight, tight.SuccessProb, []int{0}, tight.Seed, 4000)
	// Scale q so the workload q/p lies a little above the estimate, but
	// within its sampling error.
	tight.Required[0] = (capacity + se) * tight.SuccessProb[0]
	if msg, err := SubsetBoundViolation(tight, 4000); err != nil || msg != "" {
		t.Fatalf("workload within one standard error of capacity flagged: %q, %v", msg, err)
	}
	over := problem(t, 1, 0.5, 2, 1)
	over.Seed = 5
	over.Required[0] = 1.2 * capacity * over.SuccessProb[0]
	if msg, err := SubsetBoundViolation(over, 4000); err != nil || !strings.Contains(msg, "subset [0]") {
		t.Fatalf("workload 20%% over capacity not flagged: %q, %v", msg, err)
	}
}

func TestSubsetBoundViolationDetectsOverload(t *testing.T) {
	// One link demands more than its own achievable service: q = 1 packet
	// per interval at p = 0.1 needs 10 slots on average — exactly the whole
	// interval — while truncation caps useful service strictly below 10.
	av, _ := arrival.Uniform(2, arrival.Deterministic{N: 1})
	p := mac.NetworkConfig{
		Profile:     fastProfile(),
		SuccessProb: []float64{0.1, 0.9},
		Arrivals:    av,
		Required:    []float64{1, 0.5},
	}
	p.Seed = 5
	msg, err := SubsetBoundViolation(p, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if msg == "" {
		t.Fatal("no violation found for an overloaded subset")
	}
	if !strings.Contains(msg, "subset") {
		t.Fatalf("unexpected message %q", msg)
	}
}

func TestSubsetBoundNoViolationWhenLight(t *testing.T) {
	light := problem(t, 3, 0.9, 1, 0.5)
	light.Seed = 5
	msg, err := SubsetBoundViolation(light, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if msg != "" {
		t.Fatalf("light load flagged: %s", msg)
	}
}

func TestSubsetBoundRejectsHugeNetworks(t *testing.T) {
	if _, err := SubsetBoundViolation(problem(t, 15, 0.9, 1, 0.5), 10); err == nil {
		t.Fatal("15-link exact scan accepted")
	}
}

func TestMaxDeficiencyLowerBoundZeroWhenFeasible(t *testing.T) {
	if lb, err := maxDeficiencyLowerBound(problem(t, 2, 1, 1, 1)); err != nil || lb != 0 {
		t.Fatalf("lower bound %v for an underloaded instance", lb)
	}
}

func TestProbeConfigDefaultsAndErrors(t *testing.T) {
	// Zero-value config picks defaults (horizon, tolerance).
	res, err := Probe(problem(t, 2, 1, 1, 0.5), ProbeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals != 3000 {
		t.Fatalf("default horizon = %d, want 3000", res.Intervals)
	}
	if !res.Feasible {
		t.Fatal("trivial load probed infeasible with defaults")
	}
	// Invalid problems surface as errors from Probe and Frontier.
	bad := problem(t, 2, 1, 1, 0.5)
	bad.Required = []float64{1}
	if _, err := Probe(bad, ProbeConfig{}); err == nil {
		t.Fatal("invalid problem accepted by Probe")
	}
	if _, err := Frontier(bad, ProbeConfig{}, 0.1, 2, 3); err == nil {
		t.Fatal("invalid problem accepted by Frontier")
	}
	if _, err := SubsetBoundViolation(bad, 10); err == nil {
		t.Fatal("invalid problem accepted by SubsetBoundViolation")
	}
	if _, err := NecessaryBounds(bad); err == nil {
		t.Fatal("invalid problem accepted by NecessaryBounds")
	}
}

// TestFCSMAKneeRatio turns the paper's Figure-3 reading — "FCSMA supports
// only about 70% of the maximum admissible α*" — into an executable check:
// binary-search the capacity frontier of the video network once with the
// feasibility-optimal LDF probe and once probing with FCSMA itself, and
// compare the knees.
func TestFCSMAKneeRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("long frontier search")
	}
	const links = 20
	proc, err := arrival.PaperVideo(1.0) // frontier scales q = 0.9·3.5·γ
	if err != nil {
		t.Fatal(err)
	}
	av, err := arrival.Uniform(links, proc)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, links)
	req := make([]float64, links)
	for i := range probs {
		probs[i] = 0.7
		req[i] = 0.9 * proc.Mean() // γ = 1 corresponds to α* = 1
	}
	p := mac.NetworkConfig{Profile: phy.Video(), SuccessProb: probs, Arrivals: av, Required: req}

	p.Seed = 9
	cfg := ProbeConfig{Intervals: 1500, Tolerance: 0.05}
	ldfKnee, err := Frontier(p, cfg, 0.1, 1.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	fcsmaCfg := cfg
	fcsmaCfg.Protocol = func(int) (mac.Protocol, error) { return fcsma.New(fcsma.DefaultConfig()) }
	fcsmaKnee, err := Frontier(p, fcsmaCfg, 0.1, 1.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	ratio := fcsmaKnee / ldfKnee
	t.Logf("LDF knee α*=%.3f, FCSMA knee α*=%.3f, ratio %.2f", ldfKnee, fcsmaKnee, ratio)
	if ldfKnee < 0.55 || ldfKnee > 0.70 {
		t.Fatalf("LDF admissible α* = %.3f, paper reads ≈ 0.62", ldfKnee)
	}
	if ratio < 0.55 || ratio > 0.90 {
		t.Fatalf("FCSMA/LDF knee ratio %.2f, paper reports ≈ 0.70", ratio)
	}
}

// graphProblem is problem on the given conflict graph.
func graphProblem(t *testing.T, n int, edges [][2]int, p float64, perLink int, q float64) mac.NetworkConfig {
	t.Helper()
	g, err := medium.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := problem(t, n, p, perLink, q)
	cfg.Conflicts = g
	return cfg
}

// TestCliqueBounds checks that the workload bound applies per maximal clique:
// two disjoint 3-cliques each carry 3·3 = 9 of 10 slots, although the
// network as a whole demands 18.
func TestCliqueBounds(t *testing.T) {
	twoCliques := [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}}
	b := bounds(t, graphProblem(t, 6, twoCliques, 1, 3, 3))
	if !b.OK || b.Reason != "" || b.Workload != 9 {
		t.Fatalf("two 3-cliques at 9 slots each: %+v", b)
	}
	// Joining the cliques by an edge adds the clique {2 3} and leaves the
	// bound per clique; raising a link's load past the slots breaks the
	// clique that holds it, and the reason names that clique.
	cfg := graphProblem(t, 6, append(twoCliques, [2]int{2, 3}), 1, 4, 3)
	cfg.Required[4] = 4
	if b = bounds(t, cfg); !b.OK || b.Workload != 10 {
		t.Fatalf("clique {3 4 5} at exactly 10 slots: %+v", b)
	}
	cfg.Required[5] = 4
	b = bounds(t, cfg)
	want := "feasibility: expected workload 11.000 slots of clique [3 4 5] exceeds 10 available per interval"
	if b.OK || b.Reason != want {
		t.Fatalf("reason %q, want %q", b.Reason, want)
	}
}

// TestMaximalCliquesMatchBruteForce compares the enumeration with a scan of
// every subset on seeded random graphs.
func TestMaximalCliquesMatchBruteForce(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(9)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Bernoulli(0.5) {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g, err := medium.NewGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		clique := func(mask int) bool {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if mask&(1<<i) != 0 && mask&(1<<j) != 0 && !g.Conflicts(i, j) {
						return false
					}
				}
			}
			return true
		}
		want := map[uint64]bool{}
		for mask := 1; mask < 1<<n; mask++ {
			maximal := clique(mask)
			for v := 0; maximal && v < n; v++ {
				maximal = mask&(1<<v) != 0 || !clique(mask|1<<v)
			}
			if maximal {
				want[uint64(mask)] = true
			}
		}
		got := map[uint64]bool{}
		maximalCliques(g, func(c []uint64) bool {
			if got[c[0]] {
				t.Fatalf("%v: clique %b reported twice", g, c[0])
			}
			got[c[0]] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%v: %d maximal cliques, want %d", g, len(got), len(want))
		}
		for c := range want {
			if !got[c] {
				t.Fatalf("%v: maximal clique %b missing", g, c)
			}
		}
	}
}

// TestMoonMoserCapped checks that a graph with exponentially many maximal
// cliques — the complete 15-partite graph with parts of 3 links has 3^15 —
// returns promptly, with the cap named in the reason.
func TestMoonMoserCapped(t *testing.T) {
	const parts = 15
	var edges [][2]int
	for i := 0; i < 3*parts; i++ {
		for j := i + 1; j < 3*parts; j++ {
			if i/3 != j/3 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	start := time.Now()
	b := bounds(t, graphProblem(t, 3*parts, edges, 1, 1, 0.1))
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("bounds took %v", elapsed)
	}
	if !b.OK || !strings.Contains(b.Reason, "first 4096 maximal cliques") {
		t.Fatalf("capped enumeration: %+v", b)
	}
}

// TestSubsetBoundNeedsOneStaticDomain checks that the subset scan refuses a
// partial conflict graph and a fading channel, which its single-domain
// static model does not describe.
func TestSubsetBoundNeedsOneStaticDomain(t *testing.T) {
	if _, err := SubsetBoundViolation(graphProblem(t, 3, [][2]int{{0, 1}}, 0.9, 1, 0.5), 10); err == nil {
		t.Error("partial conflict graph accepted")
	}
	fading := problem(t, 3, 0.9, 1, 0.5)
	fading.SuccessProb = nil
	fading.ChannelFactory = func(eng *sim.Engine, links int) (medium.Model, error) {
		return medium.NewGilbertElliott(eng, links, 0.9, 0.5, 0.1, 0.1, 10)
	}
	if _, err := SubsetBoundViolation(fading, 10); err == nil {
		t.Error("fading channel accepted")
	}
	complete := problem(t, 3, 0.9, 1, 0.5)
	complete.Conflicts = medium.CompleteGraph(3)
	if _, err := SubsetBoundViolation(complete, 10); err != nil {
		t.Errorf("complete graph rejected: %v", err)
	}
}

// TestFadingBoundsReadModelMean checks that under fading the bounds read the
// channel model's stationary mean.
func TestFadingBoundsReadModelMean(t *testing.T) {
	cfg := problem(t, 2, 0.9, 1, 0.5)
	cfg.SuccessProb = nil
	cfg.ChannelFactory = func(eng *sim.Engine, links int) (medium.Model, error) {
		return medium.NewGilbertElliott(eng, links, 0.8, 0.4, 0.1, 0.3, 10)
	}
	want := 0.75*0.8 + 0.25*0.4
	for n, p := range bounds(t, cfg).SuccessProb {
		if math.Abs(p-want) > 1e-12 {
			t.Fatalf("link %d mean %v, want %v", n, p, want)
		}
	}
}

// maxDeficiencyLowerBound returns a crude lower bound on the steady-state
// total deficiency of an infeasible instance, to sanity-check simulated
// deficiencies against: the largest clique's excess expected workload beyond
// one interval's slots, converted back to packets at the best channel rate.
func maxDeficiencyLowerBound(cfg mac.NetworkConfig) (float64, error) {
	b, err := NecessaryBounds(cfg)
	if err != nil {
		return 0, err
	}
	excess := b.Workload - float64(cfg.Profile.SlotsPerInterval())
	if excess <= 0 {
		return 0, nil
	}
	best := 0.0
	for _, prob := range b.SuccessProb {
		best = math.Max(best, prob)
	}
	return excess * best, nil
}
