package rtmac_test

import (
	"math"
	"strings"
	"testing"

	"rtmac"
)

func controlLinks(n int, p, lambda, ratio float64) []rtmac.Link {
	links := make([]rtmac.Link, n)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   p,
			Arrivals:      rtmac.MustBernoulliArrivals(lambda),
			DeliveryRatio: ratio,
		}
	}
	return links
}

func TestNewSimulationValidation(t *testing.T) {
	good := rtmac.Config{
		Seed:     1,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(2, 0.7, 0.5, 0.9),
		Protocol: rtmac.DBDP(),
	}
	if _, err := rtmac.NewSimulation(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*rtmac.Config)
	}{
		{"no links", func(c *rtmac.Config) { c.Links = nil }},
		{"no protocol", func(c *rtmac.Config) { c.Protocol = rtmac.Protocol{} }},
		{"no profile", func(c *rtmac.Config) { c.Profile = rtmac.Profile{} }},
		{"no arrivals", func(c *rtmac.Config) { c.Links = []rtmac.Link{{SuccessProb: 0.5}} }},
		{"bad probability", func(c *rtmac.Config) { c.Links[0].SuccessProb = 0 }},
		{"both targets", func(c *rtmac.Config) {
			c.Links[0].Required = 0.5
			c.Links[0].DeliveryRatio = 0.9
		}},
		{"ratio above one", func(c *rtmac.Config) { c.Links[0].DeliveryRatio = 1.5 }},
		{"negative required", func(c *rtmac.Config) { c.Links[0].Required = -1; c.Links[0].DeliveryRatio = 0 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			cfg.Links = controlLinks(2, 0.7, 0.5, 0.9)
			tc.mutate(&cfg)
			if _, err := rtmac.NewSimulation(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// constructed turns a constructor's (value, error) result into a table case.
func constructed[T any](_ T, err error) func() error { return func() error { return err } }

// TestNonFiniteAndZeroInputsRejected feeds NaN, infinite and zero-value
// inputs to the public constructors and Config fields. Range checks written
// as x < lo || x > hi let NaN through, and a zero-value InfluenceFunc has no
// function to apply; each case must return an error, not run or panic.
func TestNonFiniteAndZeroInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := func() rtmac.Config {
		return rtmac.Config{
			Seed:     1,
			Profile:  rtmac.ControlProfile(),
			Links:    controlLinks(2, 0.7, 0.5, 0.9),
			Protocol: rtmac.DBDP(),
		}
	}
	// Every entry point that builds a network from a Config must reject a
	// config row.
	entries := []struct {
		name string
		run  func(rtmac.Config) error
	}{
		{"NewSimulation", func(cfg rtmac.Config) error {
			s, err := rtmac.NewSimulation(cfg)
			if err != nil {
				return err
			}
			return s.Run(10)
		}},
		{"CheckFeasibility", func(cfg rtmac.Config) error {
			_, err := rtmac.CheckFeasibility(cfg, 10)
			return err
		}},
		{"RequirementVector", func(cfg rtmac.Config) error {
			_, err := rtmac.RequirementVector(cfg)
			return err
		}},
	}
	link := func(mutate func(*rtmac.Link)) func(*rtmac.Config) {
		return func(c *rtmac.Config) { mutate(&c.Links[0]) }
	}
	fading := func(pGood float64, period rtmac.Time) func(*rtmac.Config) {
		return func(c *rtmac.Config) {
			c.Fading = &rtmac.Fading{PGood: pGood, PBad: 0.5, GoodToBad: 0.1, BadToGood: 0.1, Period: period}
		}
	}
	regimes := func(high ...rtmac.Arrivals) func(*rtmac.Config) {
		return func(c *rtmac.Config) { c.Regimes = &rtmac.ArrivalRegimes{High: high} }
	}
	burst := rtmac.MustBernoulliArrivals(0.9)
	// A protocol is read by NewSimulation and ProtocolCapacity only.
	protocol := func(p rtmac.Protocol) func() error {
		return func() error {
			cfg := base()
			cfg.Protocol = p
			if _, err := rtmac.NewSimulation(cfg); err == nil {
				return nil
			}
			_, err := rtmac.ProtocolCapacity(base(), p, 10)
			return err
		}
	}
	profile := func(payload int, rate float64) func() error {
		return func() error {
			_, err := rtmac.CustomProfile("custom", payload, rate, 5*rtmac.Millisecond)
			return err
		}
	}
	tests := []struct {
		name string
		cfg  func(*rtmac.Config) // a config row; every entry point must reject it
		err  func() error        // any other row: a nil error means accepted
	}{
		{name: "SuccessProb NaN", cfg: link(func(l *rtmac.Link) { l.SuccessProb = nan })},
		{name: "DeliveryRatio NaN", cfg: link(func(l *rtmac.Link) { l.DeliveryRatio = nan })},
		{name: "Required NaN", cfg: link(func(l *rtmac.Link) { l.Required, l.DeliveryRatio = nan, 0 })},
		{name: "Required +Inf", cfg: link(func(l *rtmac.Link) { l.Required, l.DeliveryRatio = inf, 0 })},
		{name: "Fading NaN", cfg: fading(nan, rtmac.Millisecond)},
		{name: "Fading PGood 1.5", cfg: fading(1.5, rtmac.Millisecond)},
		{name: "Fading Period 0", cfg: fading(0.9, 0)},
		{name: "Conflicts for another link count", cfg: func(c *rtmac.Config) {
			g, err := rtmac.NewConflictGraph(5, [][2]int{{0, 1}, {1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			c.Conflicts = g
		}},
		{name: "SLO Budget NaN", cfg: func(c *rtmac.Config) { c.SLO = &rtmac.SLOConfig{Budget: nan} }},
		{name: "Regimes High for another link count", cfg: regimes(burst)},
		{name: "Regimes High zero value", cfg: regimes(burst, rtmac.Arrivals{})},
		{name: "BernoulliArrivals NaN", err: constructed(rtmac.BernoulliArrivals(nan))},
		{name: "BinomialArrivals NaN", err: constructed(rtmac.BinomialArrivals(3, nan))},
		{name: "VideoArrivals NaN", err: constructed(rtmac.VideoArrivals(nan))},
		{name: "LogInfluence NaN", err: constructed(rtmac.LogInfluence(nan))},
		{name: "LogInfluence +Inf", err: constructed(rtmac.LogInfluence(inf))},
		{name: "PowerInfluence NaN", err: constructed(rtmac.PowerInfluence(nan))},
		{name: "PowerInfluence +Inf", err: constructed(rtmac.PowerInfluence(inf))},
		{name: "WithConstantMu NaN", err: protocol(rtmac.DBDP(rtmac.WithConstantMu(nan)))},
		{name: "WithInfluence R NaN", err: protocol(rtmac.DBDP(rtmac.WithInfluence(rtmac.PaperInfluence(), nan)))},
		{name: "WithInfluence R +Inf", err: protocol(rtmac.DBDP(rtmac.WithInfluence(rtmac.PaperInfluence(), inf)))},
		{name: "WithInfluence zero value", err: protocol(rtmac.DBDP(rtmac.WithInfluence(rtmac.InfluenceFunc{}, 10)))},
		{name: "ELDF zero value", err: protocol(rtmac.ELDF(rtmac.InfluenceFunc{}))},
		{name: "WatchConfig Budget NaN", err: func() error {
			s, err := rtmac.NewSimulation(base())
			if err != nil {
				return nil // a valid config that fails to build fails the case
			}
			_, err = s.EnableWatch(rtmac.WatchConfig{Budget: nan})
			return err
		}},
		{name: "CustomProfile payload MaxInt", err: profile(math.MaxInt, 54)},
		{name: "CustomProfile rate NaN", err: profile(100, nan)},
		{name: "CustomProfile rate +Inf", err: profile(100, inf)},
		{name: "CustomProfile rate 1e-300", err: profile(100, 1e-300)},
		{name: "Profile WithSlot 0", err: constructed(rtmac.ControlProfile().WithSlot(0))},
		{name: "Profile WithSlot -9", err: constructed(rtmac.VideoProfile().WithSlot(-9))},
		{name: "Profile WithEmptyAirtime 0", err: constructed(rtmac.ControlProfile().WithEmptyAirtime(0))},
		{name: "Profile WithEmptyAirtime -70", err: constructed(rtmac.VideoProfile().WithEmptyAirtime(-70))},
		{name: "Profile WithSlot on the zero Profile", err: constructed(rtmac.Profile{}.WithSlot(9))},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if tc.cfg == nil {
				if err := tc.err(); err == nil {
					t.Fatal("accepted")
				}
				return
			}
			for _, e := range entries {
				cfg := base()
				tc.cfg(&cfg)
				if err := e.run(cfg); err == nil {
					t.Errorf("%s accepted", e.name)
				}
			}
		})
	}
}

// TestArrivalRegimesRequirement checks that DeliveryRatio scales a link's
// stationary rate under ArrivalRegimes (the chain spends half its intervals
// in each regime), and that a run under the switch draws more arrivals than
// the low regime alone.
func TestArrivalRegimesRequirement(t *testing.T) {
	cfg := rtmac.Config{
		Seed:     3,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(2, 0.7, 0.2, 0.5),
		Protocol: rtmac.LDF(),
		Regimes: &rtmac.ArrivalRegimes{
			High: []rtmac.Arrivals{rtmac.MustBernoulliArrivals(0.8), rtmac.MustBernoulliArrivals(0.8)},
		},
	}
	q, err := rtmac.RequirementVector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * (0.5*0.2 + 0.5*0.8)
	for n, got := range q {
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("link %d requirement %v, want %v", n, got, want)
		}
	}
	throughput := func(cfg rtmac.Config) float64 {
		s, err := rtmac.NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(4000); err != nil {
			t.Fatal(err)
		}
		return s.Report().Links[0].Throughput
	}
	switched := throughput(cfg)
	cfg.Regimes = nil
	if low := throughput(cfg); !(switched > low+0.05) {
		t.Errorf("throughput %v under the switch, %v in the low regime alone", switched, low)
	}
}

func TestArrivalConstructors(t *testing.T) {
	if _, err := rtmac.BernoulliArrivals(1.5); err == nil {
		t.Error("Bernoulli p > 1 accepted")
	}
	if _, err := rtmac.VideoArrivals(-0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := rtmac.BurstyArrivals(0.5, 5, 2); err == nil {
		t.Error("inverted burst range accepted")
	}
	if _, err := rtmac.BinomialArrivals(-1, 0.5); err == nil {
		t.Error("negative Binomial trials accepted")
	}
	v := rtmac.MustVideoArrivals(0.55)
	if math.Abs(v.Mean()-3.5*0.55) > 1e-12 || v.Max() != 6 {
		t.Fatalf("video arrivals mean %v max %d", v.Mean(), v.Max())
	}
	if rtmac.FixedArrivals(3).Mean() != 3 {
		t.Fatal("FixedArrivals mean wrong")
	}
}

func TestMustConstructorsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBernoulliArrivals(2) did not panic")
		}
	}()
	rtmac.MustBernoulliArrivals(2)
}

func TestProfiles(t *testing.T) {
	if got := rtmac.VideoProfile().SlotsPerInterval(); got != 60 {
		t.Fatalf("video slots = %d, want 60", got)
	}
	if got := rtmac.ControlProfile().SlotsPerInterval(); got != 16 {
		t.Fatalf("control slots = %d, want 16", got)
	}
	if got := rtmac.ControlProfile().Interval(); got != 2*rtmac.Millisecond {
		t.Fatalf("control interval = %v", got)
	}
	custom, err := rtmac.CustomProfile("sensor", 300, 54, 5*rtmac.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if custom.SlotsPerInterval() <= 0 {
		t.Fatal("custom profile fits nothing")
	}
	if _, err := rtmac.CustomProfile("bad", 1500, 54, 10*rtmac.Microsecond); err == nil {
		t.Fatal("too-short deadline accepted")
	}
}

func TestDBDPFulfillsFeasibleControlLoad(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     7,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(10, 0.7, 0.6, 0.99),
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3000); err != nil {
		t.Fatal(err)
	}
	rep := sim.Report()
	if rep.TotalDeficiency > 0.05 {
		t.Fatalf("DB-DP deficiency %v on a feasible load", rep.TotalDeficiency)
	}
	if rep.Channel.Collisions != 0 {
		t.Fatalf("DB-DP collided %d times", rep.Channel.Collisions)
	}
	if rep.Intervals != 3000 {
		t.Fatalf("intervals = %d", rep.Intervals)
	}
	if rep.Protocol == "" {
		t.Fatal("empty protocol name")
	}
}

func TestDBDPMatchesLDF(t *testing.T) {
	// The paper's headline: DB-DP performs essentially as well as the
	// centralized feasibility-optimal LDF.
	run := func(p rtmac.Protocol) float64 {
		sim, err := rtmac.NewSimulation(rtmac.Config{
			Seed:     11,
			Profile:  rtmac.ControlProfile(),
			Links:    controlLinks(10, 0.7, 0.75, 0.99),
			Protocol: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(4000); err != nil {
			t.Fatal(err)
		}
		return sim.TotalDeficiency()
	}
	dbdp := run(rtmac.DBDP())
	ldf := run(rtmac.LDF())
	if dbdp > ldf+0.1 {
		t.Fatalf("DB-DP deficiency %v not close to LDF's %v", dbdp, ldf)
	}
}

func TestFCSMAWorseThanDBDPUnderLoad(t *testing.T) {
	run := func(p rtmac.Protocol) float64 {
		sim, err := rtmac.NewSimulation(rtmac.Config{
			Seed:     13,
			Profile:  rtmac.ControlProfile(),
			Links:    controlLinks(10, 0.7, 0.85, 0.99),
			Protocol: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(4000); err != nil {
			t.Fatal(err)
		}
		return sim.TotalDeficiency()
	}
	if fcsma, dbdp := run(rtmac.FCSMA()), run(rtmac.DBDP()); fcsma < dbdp+0.2 {
		t.Fatalf("FCSMA deficiency %v not clearly above DB-DP's %v", fcsma, dbdp)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() rtmac.Report {
		sim, err := rtmac.NewSimulation(rtmac.Config{
			Seed:     99,
			Profile:  rtmac.ControlProfile(),
			Links:    controlLinks(5, 0.7, 0.7, 0.95),
			Protocol: rtmac.DBDP(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(500); err != nil {
			t.Fatal(err)
		}
		return sim.Report()
	}
	a, b := run(), run()
	if a.TotalDeficiency != b.TotalDeficiency ||
		a.Channel.Transmissions != b.Channel.Transmissions ||
		a.Channel.Deliveries != b.Channel.Deliveries {
		t.Fatalf("identical seeds diverged: %+v vs %+v", a.Channel, b.Channel)
	}
}

func TestSnapshotsAndPriorities(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:          3,
		Profile:       rtmac.ControlProfile(),
		Links:         controlLinks(4, 0.8, 0.5, 0.9),
		Protocol:      rtmac.DBDP(),
		SnapshotEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(500); err != nil {
		t.Fatal(err)
	}
	snaps := sim.Snapshots()
	if len(snaps) != 5 {
		t.Fatalf("got %d snapshots, want 5", len(snaps))
	}
	for _, s := range snaps {
		if len(s.Cumulative) != 4 || len(s.Windowed) != 4 {
			t.Fatalf("snapshot vectors wrong length: %+v", s)
		}
	}
	prio := sim.Priorities()
	if len(prio) != 4 {
		t.Fatalf("Priorities = %v, want a 4-permutation", prio)
	}
	seen := map[int]bool{}
	for _, p := range prio {
		if p < 1 || p > 4 || seen[p] {
			t.Fatalf("Priorities = %v is not a permutation", prio)
		}
		seen[p] = true
	}
}

func TestPrioritiesNilForCentralized(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     3,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(4, 0.8, 0.5, 0.9),
		Protocol: rtmac.LDF(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Priorities(); got != nil {
		t.Fatalf("LDF Priorities = %v, want nil", got)
	}
}

func TestFrozenAndInitialPriorities(t *testing.T) {
	initial := []int{4, 3, 2, 1}
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:    5,
		Profile: rtmac.ControlProfile(),
		Links:   controlLinks(4, 0.8, 0.5, 0.9),
		Protocol: rtmac.DBDP(
			rtmac.WithFrozenPriorities(),
			rtmac.WithInitialPriorities(initial),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(200); err != nil {
		t.Fatal(err)
	}
	got := sim.Priorities()
	for i := range initial {
		if got[i] != initial[i] {
			t.Fatalf("frozen priorities drifted: %v", got)
		}
	}
}

func TestProtocolOptionsValidatedAtBuild(t *testing.T) {
	bad := rtmac.Config{
		Seed:     1,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(4, 0.8, 0.5, 0.9),
		Protocol: rtmac.DBDP(rtmac.WithInitialPriorities([]int{1, 1, 2, 3})),
	}
	if _, err := rtmac.NewSimulation(bad); err == nil {
		t.Fatal("invalid initial priorities accepted")
	}
	bad.Protocol = rtmac.DBDP(rtmac.WithSwapPairs(99))
	if _, err := rtmac.NewSimulation(bad); err == nil {
		t.Fatal("too many swap pairs accepted")
	}
	bad.Protocol = rtmac.FCSMAWith(0, 0, 0, 0)
	if _, err := rtmac.NewSimulation(bad); err == nil {
		t.Fatal("invalid FCSMA config accepted")
	}
}

func TestELDFAndInfluence(t *testing.T) {
	f, err := rtmac.LogInfluence(50)
	if err != nil {
		t.Fatal(err)
	}
	if f.Eval(-3) != f.Eval(0) {
		t.Fatal("negative debt not clamped")
	}
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     5,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(4, 0.8, 0.5, 0.9),
		Protocol: rtmac.ELDF(f),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(400); err != nil {
		t.Fatal(err)
	}
	if d := sim.TotalDeficiency(); d > 0.05 {
		t.Fatalf("ELDF deficiency %v on light load", d)
	}
	if _, err := rtmac.LogInfluence(0); err == nil {
		t.Fatal("zero log scale accepted")
	}
	if _, err := rtmac.PowerInfluence(-1); err == nil {
		t.Fatal("negative power accepted")
	}
}

func TestDCFRunsAndCollides(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     5,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(10, 0.9, 0.9, 0.5),
		Protocol: rtmac.DCF(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	rep := sim.Report()
	if rep.Channel.Collisions == 0 {
		t.Fatal("ten contending DCF stations never collided")
	}
}

func TestReportString(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     5,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(2, 0.8, 0.5, 0.9),
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	out := sim.Report().String()
	for _, want := range []string{"protocol", "total deficiency", "channel:", "link", "ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRequiredOverridesRatio(t *testing.T) {
	links := controlLinks(2, 0.8, 0.5, 0)
	links[0].Required = 0.25
	links[1].Required = 0.25
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     5,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: rtmac.LDF(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(200); err != nil {
		t.Fatal(err)
	}
	rep := sim.Report()
	if rep.Links[0].Required != 0.25 {
		t.Fatalf("Required = %v, want 0.25", rep.Links[0].Required)
	}
}

func TestConstantMuVariant(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     5,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(4, 0.8, 0.5, 0.9),
		Protocol: rtmac.DBDP(rtmac.WithConstantMu(0.5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(300); err != nil {
		t.Fatal(err)
	}
	if sim.Report().Channel.Collisions != 0 {
		t.Fatal("constant-µ DP collided")
	}
}

func TestLabels(t *testing.T) {
	if rtmac.DBDP().Label() != "DB-DP" || rtmac.LDF().Label() != "LDF" ||
		rtmac.FCSMA().Label() != "FCSMA" || rtmac.DCF().Label() != "DCF" {
		t.Fatal("protocol labels wrong")
	}
	if !strings.Contains(rtmac.ELDF(rtmac.PaperInfluence()).Label(), "ELDF") {
		t.Fatal("ELDF label wrong")
	}
}

// timelineLanes renders interval k from the monitor's flight recorder and
// returns its lanes, failing unless the legend is present.
func timelineLanes(t *testing.T, mon *rtmac.Monitor, k int64) []string {
	t.Helper()
	var out strings.Builder
	if err := mon.RenderInterval(&out, k, 80); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "legend: D delivered") {
		t.Fatalf("timeline has no legend:\n%s", out.String())
	}
	var lanes []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "link") {
			lanes = append(lanes, line[strings.Index(line, "|")+1:strings.LastIndex(line, "|")])
		}
	}
	return lanes
}

func TestMonitorRenderIntervalDBDPHasNoCollisions(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     5,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(4, 0.7, 0.9, 0.9),
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := sim.EnableMonitor(rtmac.MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 20; k++ {
		lanes := timelineLanes(t, mon, k)
		if len(lanes) != 4 {
			t.Fatalf("interval %d: %d lanes, want one per link", k, len(lanes))
		}
		for link, lane := range lanes {
			if len(lane) != 80 {
				t.Fatalf("interval %d link %d: lane is %d columns, want 80", k, link, len(lane))
			}
			// DB-DP never collides: no 'C' may appear in any lane.
			if strings.Contains(lane, "C") {
				t.Fatalf("interval %d: collision glyph in DB-DP lane %d: %s", k, link, lane)
			}
		}
	}
	if !strings.Contains(strings.Join(timelineLanes(t, mon, 19), ""), "D") {
		t.Fatal("final interval draws no delivery")
	}
}

func TestFrameCSMASubOptimalOnUnreliableChannel(t *testing.T) {
	// The paper's introduction: frame-based CSMA cannot adapt its schedule
	// to losses within a frame, so on unreliable channels it trails the
	// adaptive policies at loads they fulfill.
	run := func(p rtmac.Protocol) float64 {
		sim, err := rtmac.NewSimulation(rtmac.Config{
			Seed:     17,
			Profile:  rtmac.ControlProfile(),
			Links:    controlLinks(10, 0.7, 0.7, 0.95),
			Protocol: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(3000); err != nil {
			t.Fatal(err)
		}
		return sim.TotalDeficiency()
	}
	frame, dbdp := run(rtmac.FrameCSMA()), run(rtmac.DBDP())
	if dbdp > 0.05 {
		t.Fatalf("DB-DP deficiency %v, expected ≈ 0 at this load", dbdp)
	}
	if frame < dbdp+0.05 {
		t.Fatalf("Frame-CSMA deficiency %v not clearly above DB-DP's %v", frame, dbdp)
	}
	if rtmac.FrameCSMA().Label() != "Frame-CSMA" {
		t.Fatal("label wrong")
	}
}

func TestTDMAZeroAdaptivityBaseline(t *testing.T) {
	// TDMA is collision-free but cannot shift airtime toward the weak link;
	// DB-DP can. Asymmetric channel, equal demands.
	links := []rtmac.Link{
		{SuccessProb: 0.4, Arrivals: rtmac.FixedArrivals(1), DeliveryRatio: 0.95},
		{SuccessProb: 0.95, Arrivals: rtmac.FixedArrivals(1), DeliveryRatio: 0.95},
	}
	run := func(p rtmac.Protocol) rtmac.Report {
		sim, err := rtmac.NewSimulation(rtmac.Config{
			Seed:     23,
			Profile:  rtmac.ControlProfile(),
			Links:    links,
			Protocol: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(3000); err != nil {
			t.Fatal(err)
		}
		return sim.Report()
	}
	tdmaRep := run(rtmac.TDMA())
	dbdpRep := run(rtmac.DBDP())
	if tdmaRep.Channel.Collisions != 0 {
		t.Fatal("TDMA collided")
	}
	if tdmaRep.TotalDeficiency < dbdpRep.TotalDeficiency {
		t.Fatalf("TDMA (%v) beat DB-DP (%v) on an asymmetric network",
			tdmaRep.TotalDeficiency, dbdpRep.TotalDeficiency)
	}
	if rtmac.TDMA().Label() != "TDMA" {
		t.Fatal("label wrong")
	}
}

func TestCheckFeasibility(t *testing.T) {
	feasibleCfg := rtmac.Config{
		Seed:     1,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(10, 0.7, 0.6, 0.99),
		Protocol: rtmac.DBDP(),
	}
	res, err := rtmac.CheckFeasibility(feasibleCfg, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NecessaryBoundsOK || !res.Feasible {
		t.Fatalf("comfortably feasible config rejected: %+v", res)
	}
	if res.CapacitySlots != 16 {
		t.Fatalf("CapacitySlots = %d", res.CapacitySlots)
	}
	if res.WorkloadSlots <= 0 || res.WorkloadSlots >= 16 {
		t.Fatalf("WorkloadSlots = %v", res.WorkloadSlots)
	}

	// Provably infeasible: q above λ.
	links := controlLinks(2, 0.7, 0.5, 0)
	links[0].Required = 0.9
	links[1].Required = 0.9
	badCfg := feasibleCfg
	badCfg.Links = links
	res, err = rtmac.CheckFeasibility(badCfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.NecessaryBoundsOK || res.Feasible {
		t.Fatalf("q > λ config accepted: %+v", res)
	}
	if res.NecessaryBoundsReason == "" {
		t.Fatal("no reason reported")
	}

	// Misconfigured input errors out.
	if _, err := rtmac.CheckFeasibility(rtmac.Config{}, 10); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestFiveCycleBoundsAreNecessaryOnly pins the clique bounds as necessary
// only. On a 5-cycle every maximal clique is an edge, and each edge carries
// 7 + 7 = 14 of the control profile's 16 slots, so every bound holds. But an
// independent set of the 5-cycle holds only 2 of the 5 links, so at most
// 2·16 = 32 of the 35 packets per interval can be delivered: the probe must
// report the vector infeasible.
func TestFiveCycleBoundsAreNecessaryOnly(t *testing.T) {
	links := make([]rtmac.Link, 5)
	for i := range links {
		links[i] = rtmac.Link{SuccessProb: 1, Arrivals: rtmac.FixedArrivals(7), DeliveryRatio: 1}
	}
	cycle, err := rtmac.NewConflictGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rtmac.CheckFeasibility(rtmac.Config{
		Seed:      1,
		Profile:   rtmac.ControlProfile(),
		Links:     links,
		Conflicts: cycle,
	}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NecessaryBoundsOK || res.NecessaryBoundsReason != "" || res.WorkloadSlots != 14 {
		t.Fatalf("edge bounds 14 ≤ 16 should hold: %+v", res)
	}
	if res.Feasible {
		t.Fatalf("5-cycle needing 35 deliveries from 32 slot-links probed feasible: %+v", res)
	}
}

func TestCapacityFrontier(t *testing.T) {
	cfg := rtmac.Config{
		Seed:    1,
		Profile: rtmac.ControlProfile(),
		Links: []rtmac.Link{
			{SuccessProb: 1, Arrivals: rtmac.FixedArrivals(1), DeliveryRatio: 1},
			{SuccessProb: 1, Arrivals: rtmac.FixedArrivals(1), DeliveryRatio: 1},
		},
	}
	gamma, err := rtmac.CapacityFrontier(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Two reliable links with one packet each can never deliver more than
	// their arrivals: the frontier is γ ≈ 1 (q ≤ λ binds).
	if gamma < 0.95 || gamma > 1.05 {
		t.Fatalf("frontier γ = %v, want ≈ 1", gamma)
	}
	if _, err := rtmac.CapacityFrontier(rtmac.Config{}, 10); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestWithLearnedReliability(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     31,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(6, 0.7, 0.6, 0.95),
		Protocol: rtmac.DBDP(rtmac.WithLearnedReliability()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2000); err != nil {
		t.Fatal(err)
	}
	rep := sim.Report()
	if rep.Channel.Collisions != 0 {
		t.Fatal("learned DB-DP collided")
	}
	if rep.TotalDeficiency > 0.1 {
		t.Fatalf("learned DB-DP deficiency %v on a feasible load", rep.TotalDeficiency)
	}
}

func TestFadingChannelConfig(t *testing.T) {
	fading := &rtmac.Fading{
		PGood: 0.85, PBad: 0.45,
		GoodToBad: 0.05, BadToGood: 0.05,
		Period: rtmac.Millisecond,
	}
	links := make([]rtmac.Link, 6)
	for i := range links {
		links[i] = rtmac.Link{
			Arrivals:      rtmac.MustBernoulliArrivals(0.5),
			DeliveryRatio: 0.9,
		}
	}
	cfg := rtmac.Config{
		Seed:     41,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: rtmac.DBDP(),
		Fading:   fading,
	}
	sim, err := rtmac.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3000); err != nil {
		t.Fatal(err)
	}
	rep := sim.Report()
	if rep.Channel.Collisions != 0 {
		t.Fatal("fading DB-DP collided")
	}
	// The per-attempt delivery rate sits BELOW the stationary mean 0.65:
	// failures trigger retries, so attempts oversample the bad state
	// (attempt-weighted rate ≈ 0.59 for these parameters) — but it must
	// stay well inside the (0.45, 0.85) state extremes.
	rate := float64(rep.Channel.Deliveries) / float64(rep.Channel.Deliveries+rep.Channel.Losses)
	if rate < 0.55 || rate > 0.70 {
		t.Fatalf("per-attempt delivery rate %v, want ≈ 0.59", rate)
	}
	if rep.TotalDeficiency > 0.15 {
		t.Fatalf("fading deficiency %v on a light load", rep.TotalDeficiency)
	}
	// Feasibility checks accept fading configs; their bounds read the
	// model's stationary mean reliability.
	res, err := rtmac.CheckFeasibility(cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NecessaryBoundsOK {
		t.Fatalf("fading feasibility bounds: %+v", res)
	}
	if got := res.PerLink[0].SuccessProb; math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("stationary mean reliability %v, want 0.65", got)
	}
	// Invalid fading parameters surface as construction errors.
	bad := *fading
	bad.PBad = 0
	if _, err := rtmac.NewSimulation(rtmac.Config{
		Seed: 1, Profile: rtmac.ControlProfile(), Links: links,
		Protocol: rtmac.DBDP(), Fading: &bad,
	}); err == nil {
		t.Fatal("invalid fading accepted")
	}
}

func TestDelayStatsEndToEnd(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     53,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(6, 0.7, 0.6, 0.95),
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	delay, err := sim.EnableDelayStats(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2000); err != nil {
		t.Fatal(err)
	}
	if delay.Count() == 0 {
		t.Fatal("no deliveries observed")
	}
	mean := delay.Mean()
	if mean <= 0 || mean > 2*rtmac.Millisecond {
		t.Fatalf("mean delay %v outside (0, deadline]", mean)
	}
	maxD := delay.Max()
	if maxD > 2*rtmac.Millisecond {
		t.Fatalf("max delay %v exceeds the deadline", maxD)
	}
	p50, err := delay.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	p99, err := delay.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !(p50 <= p99 && p99 <= 2*rtmac.Millisecond) {
		t.Fatalf("quantiles disordered: p50=%v p99=%v", p50, p99)
	}
	if share := delay.DeadlineShare(1.0); share < 0.999 {
		t.Fatalf("DeadlineShare(1) = %v, want ≈ 1", share)
	}
	if half := delay.DeadlineShare(0.5); half <= 0 || half > 1 {
		t.Fatalf("DeadlineShare(0.5) = %v", half)
	}
	if _, err := sim.EnableDelayStats(0); err == nil {
		t.Fatal("zero resolution accepted")
	}
}

// TestDelayQuantileRejectsOutOfRange requires every q outside (0, 1],
// NaN included, to be an error rather than a quantile.
func TestDelayQuantileRejectsOutOfRange(t *testing.T) {
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     3,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(2, 0.7, 0.6, 0.95),
		Protocol: rtmac.LDF(),
	})
	if err != nil {
		t.Fatal(err)
	}
	delay, err := sim.EnableDelayStats(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	if delay.Count() == 0 {
		t.Fatal("no deliveries observed")
	}
	for _, q := range []float64{math.NaN(), 0, -0.5, 1.5, math.Inf(1), math.Inf(-1)} {
		if v, err := delay.Quantile(q); err == nil {
			t.Errorf("Quantile(%v) = %v, nil; want an error", q, v)
		}
	}
	if _, err := delay.Quantile(1); err != nil {
		t.Errorf("Quantile(1): %v", err)
	}
}

func TestProtocolCapacity(t *testing.T) {
	cfg := rtmac.Config{
		Seed:    5,
		Profile: rtmac.ControlProfile(),
		Links:   controlLinks(10, 0.7, 0.6, 0.9),
	}
	optimal, err := rtmac.CapacityFrontier(cfg, 600)
	if err != nil {
		t.Fatal(err)
	}
	fcsma, err := rtmac.ProtocolCapacity(cfg, rtmac.FCSMA(), 600)
	if err != nil {
		t.Fatal(err)
	}
	dbdp, err := rtmac.ProtocolCapacity(cfg, rtmac.DBDP(), 600)
	if err != nil {
		t.Fatal(err)
	}
	if fcsma >= optimal {
		t.Fatalf("FCSMA capacity %v not below the optimal frontier %v", fcsma, optimal)
	}
	// DB-DP is feasibility-optimal: its capacity sits near the frontier
	// (short probe horizons leave a convergence-transient discount).
	if dbdp < 0.75*optimal {
		t.Fatalf("DB-DP capacity %v far below the frontier %v", dbdp, optimal)
	}
	if _, err := rtmac.ProtocolCapacity(cfg, rtmac.Protocol{}, 100); err == nil {
		t.Fatal("zero protocol accepted")
	}
}
