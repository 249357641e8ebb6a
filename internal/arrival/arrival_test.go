package arrival

import (
	"math"
	"testing"
	"testing/quick"

	"rtmac/internal/sim"
)

// checkEmpiricalMean draws samples and verifies bounds and the sample mean.
func checkEmpiricalMean(t *testing.T, p Process) {
	t.Helper()
	rng := sim.NewRNG(11)
	const trials = 100000
	sum := 0
	for i := 0; i < trials; i++ {
		s := p.Sample(rng)
		if s < 0 || s > p.Max() {
			t.Fatalf("%s: sample %d outside [0, %d]", p.Name(), s, p.Max())
		}
		sum += s
	}
	got := float64(sum) / trials
	want := p.Mean()
	tol := 0.02*want + 0.01
	if math.Abs(got-want) > tol {
		t.Errorf("%s: empirical mean %v, want ~%v", p.Name(), got, want)
	}
}

func TestProcessMeans(t *testing.T) {
	bern, err := NewBernoulli(0.78)
	if err != nil {
		t.Fatal(err)
	}
	video, err := PaperVideo(0.55)
	if err != nil {
		t.Fatal(err)
	}
	binom, err := NewBinomial(6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Process{bern, video, binom, Deterministic{N: 3}} {
		t.Run(p.Name(), func(t *testing.T) { checkEmpiricalMean(t, p) })
	}
}

func TestPaperVideoMeanFormula(t *testing.T) {
	// The paper: λ_n = 3.5 α_n for uniform {1..6} bursts.
	for _, alpha := range []float64{0.1, 0.55, 0.62, 1.0} {
		p, err := PaperVideo(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if want := 3.5 * alpha; math.Abs(p.Mean()-want) > 1e-12 {
			t.Errorf("PaperVideo(%v).Mean() = %v, want %v", alpha, p.Mean(), want)
		}
		if p.Max() != 6 {
			t.Errorf("PaperVideo(%v).Max() = %d, want 6", alpha, p.Max())
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewBernoulli(-0.1); err == nil {
		t.Error("NewBernoulli(-0.1) accepted")
	}
	if _, err := NewBernoulli(1.1); err == nil {
		t.Error("NewBernoulli(1.1) accepted")
	}
	if _, err := NewBurstyUniform(0.5, 3, 2); err == nil {
		t.Error("empty burst range accepted")
	}
	if _, err := NewBurstyUniform(0.5, -1, 2); err == nil {
		t.Error("negative burst size accepted")
	}
	if _, err := NewBurstyUniform(1.5, 1, 6); err == nil {
		t.Error("burst probability above 1 accepted")
	}
	if _, err := NewBinomial(-1, 0.5); err == nil {
		t.Error("negative Binomial trials accepted")
	}
	if _, err := NewBinomial(5, 2); err == nil {
		t.Error("Binomial probability above 1 accepted")
	}
}

func TestDeterministicIsConstant(t *testing.T) {
	rng := sim.NewRNG(1)
	d := Deterministic{N: 4}
	for i := 0; i < 100; i++ {
		if got := d.Sample(rng); got != 4 {
			t.Fatalf("Sample = %d, want 4", got)
		}
	}
}

func TestBurstySupport(t *testing.T) {
	rng := sim.NewRNG(3)
	p, err := NewBurstyUniform(1.0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		s := p.Sample(rng)
		if s < 2 || s > 5 {
			t.Fatalf("sample %d outside {2..5}", s)
		}
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Fatalf("support seen = %v, want all of {2..5}", seen)
	}
}

func TestIndependentVector(t *testing.T) {
	b, _ := NewBernoulli(0.5)
	v, err := NewIndependent(b, Deterministic{N: 2}, b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Links() != 3 {
		t.Fatalf("Links = %d, want 3", v.Links())
	}
	means := v.Means()
	if means[0] != 0.5 || means[1] != 2 || means[2] != 0.5 {
		t.Fatalf("Means = %v", means)
	}
	maxes := v.MaxPerLink()
	if maxes[0] != 1 || maxes[1] != 2 || maxes[2] != 1 {
		t.Fatalf("MaxPerLink = %v", maxes)
	}
	rng := sim.NewRNG(1)
	dst := make([]int, 3)
	for i := 0; i < 100; i++ {
		v.Sample(rng, dst)
		if dst[1] != 2 {
			t.Fatalf("deterministic coordinate = %d, want 2", dst[1])
		}
		for n, a := range dst {
			if a < 0 || a > maxes[n] {
				t.Fatalf("coordinate %d = %d outside bounds", n, a)
			}
		}
	}
}

func TestIndependentValidation(t *testing.T) {
	if _, err := NewIndependent(); err == nil {
		t.Error("empty process list accepted")
	}
	if _, err := NewIndependent(nil); err == nil {
		t.Error("nil process accepted")
	}
	if _, err := Uniform(0, Deterministic{N: 1}); err == nil {
		t.Error("zero link count accepted")
	}
}

func TestUniformVector(t *testing.T) {
	v, err := Uniform(20, Deterministic{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Links() != 20 {
		t.Fatalf("Links = %d, want 20", v.Links())
	}
	for _, m := range v.Means() {
		if m != 1 {
			t.Fatalf("Means = %v, want all ones", v.Means())
		}
	}
}

// Property: every sample of every built-in process stays within [0, Max].
func TestSampleBoundsProperty(t *testing.T) {
	rng := sim.NewRNG(21)
	prop := func(alphaRaw, pRaw uint16, hiRaw uint8) bool {
		alpha := float64(alphaRaw) / 65535
		p := float64(pRaw) / 65535
		hi := int(hiRaw%10) + 1
		bursty, err := NewBurstyUniform(alpha, 1, hi)
		if err != nil {
			return false
		}
		bern, err := NewBernoulli(p)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			if s := bursty.Sample(rng); s < 0 || s > hi {
				return false
			}
			if s := bern.Sample(rng); s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPerturbCountsPerStream checks that the injection lands on the K-th
// sample of every RNG stream, so networks sharing one Perturb each see it.
func TestPerturbCountsPerStream(t *testing.T) {
	inner, err := Uniform(2, Deterministic{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPerturb(inner, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 2)
	for _, rng := range []*sim.RNG{sim.NewRNG(1), sim.NewRNG(2)} {
		for k := 0; k < 3; k++ {
			p.Sample(rng, dst)
			if want := map[bool]int{true: 4, false: 1}[k == 1]; dst[0] != want || dst[1] != 1 {
				t.Fatalf("sample %d: %v, want [%d 1]", k, dst, want)
			}
		}
	}
}
