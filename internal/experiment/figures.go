package experiment

import (
	"fmt"
	"strings"
	"sync"

	"rtmac"
	"rtmac/internal/ledger"
	"rtmac/internal/stats"
)

// Paper constants for the two evaluation scenarios (Section VI).
const (
	videoLinks     = 20
	videoIntervals = 5000
	videoP         = 0.7
	videoRho       = 0.9

	controlLinks     = 10
	controlIntervals = 20000
	controlP         = 0.7
	controlRho       = 0.99
)

// videoConfig builds the symmetric video network of §VI-A: bursty-uniform
// arrivals on {1..6} with probability alpha (λ = 3.5α), deadline 20 ms,
// 330 µs exchanges, and delivery ratio rho on every link.
func videoConfig(alpha, rho float64) (rtmac.Config, error) {
	arrivals, err := rtmac.VideoArrivals(alpha)
	if err != nil {
		return rtmac.Config{}, err
	}
	return rtmac.Config{
		Profile: rtmac.VideoProfile(),
		Links:   repeat(videoLinks, rtmac.Link{SuccessProb: videoP, Arrivals: arrivals, DeliveryRatio: rho}),
	}, nil
}

// asymmetricConfig builds the two-group video network of §VI-A: group 1
// (links 0..9) has p = 0.5 and α = 0.5·α*; group 2 (links 10..19) has
// p = 0.8 and α = α*.
func asymmetricConfig(alphaStar, rho float64) (rtmac.Config, error) {
	group1, err := rtmac.VideoArrivals(0.5 * alphaStar)
	if err != nil {
		return rtmac.Config{}, err
	}
	group2, err := rtmac.VideoArrivals(alphaStar)
	if err != nil {
		return rtmac.Config{}, err
	}
	links := make([]rtmac.Link, videoLinks)
	for n := range links {
		links[n] = rtmac.Link{SuccessProb: 0.8, Arrivals: group2, DeliveryRatio: rho}
		if n < videoLinks/2 {
			links[n] = rtmac.Link{SuccessProb: 0.5, Arrivals: group1, DeliveryRatio: rho}
		}
	}
	return rtmac.Config{Profile: rtmac.VideoProfile(), Links: links}, nil
}

// controlConfig builds the ultra-low-latency network of §VI-B: Bernoulli
// arrivals with mean lambda, deadline 2 ms, 120 µs exchanges.
func controlConfig(lambda, rho float64) (rtmac.Config, error) {
	arrivals, err := rtmac.BernoulliArrivals(lambda)
	if err != nil {
		return rtmac.Config{}, err
	}
	return rtmac.Config{
		Profile: rtmac.ControlProfile(),
		Links:   repeat(controlLinks, rtmac.Link{SuccessProb: controlP, Arrivals: arrivals, DeliveryRatio: rho}),
	}, nil
}

// repeat returns n copies of v.
func repeat[T any](n int, v T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// linkGroup is a named subset of links whose deficiencies one curve sums;
// the unnamed group with nil links labels a total-deficiency curve.
type linkGroup struct {
	name  string
	links []int
}

// deficiency is the timely-throughput deficiency over the group of a run
// whose per-link report is links.
func (g linkGroup) deficiency(links []rtmac.LinkReport) float64 {
	total := 0.0
	for _, n := range g.links {
		total += links[n].Deficiency
	}
	return total
}

// asymmetricGroups names the two link groups of Figs. 7–8.
func asymmetricGroups() []linkGroup {
	g1 := make([]int, videoLinks/2)
	g2 := make([]int, videoLinks/2)
	for i := range g1 {
		g1[i] = i
		g2[i] = videoLinks/2 + i
	}
	return []linkGroup{{"group1", g1}, {"group2", g2}}
}

// sweepFigure is a deficiency-vs-x figure fully described by data: every
// (x, protocol, replication) is one job, and each curve point aggregates a
// point's replications into mean, standard error, 95% confidence half-width
// and delivery-delay quantiles. Replications are seed-tagged, so the summary
// is independent of worker completion order.
type sweepFigure struct {
	id, title, xlabel string
	xs                []float64
	// build returns the network at x; each job sets its seed and protocol.
	build func(x float64) (rtmac.Config, error)
	// horizon is the native interval count RunOptions scales.
	horizon int
	groups  []linkGroup // nil for total deficiency
	curves  []curve
	// replaySeeds gives every point the same replication seeds,
	// seedFor(s, 0), instead of folding the job index in.
	replaySeeds bool
}

func (f *sweepFigure) ID() string    { return f.id }
func (f *sweepFigure) Title() string { return f.title }

func (f *sweepFigure) Run(opts RunOptions) (*Result, error) {
	opts = opts.fill()
	// Each curve is one (protocol, link group) pair; without groups there is
	// one unnamed group covering every link.
	groups, ylabel := f.groups, "group-wide timely-throughput deficiency"
	if groups == nil {
		groups, ylabel = []linkGroup{{}}, "total timely-throughput deficiency"
	}
	// aggs[(xi*len(curves)+ci)*len(groups)+gi] is one curve point.
	aggs := make([]stats.PointAggregate, len(f.xs)*len(f.curves)*len(groups))
	intervals := opts.scaled(f.horizon)
	var jobs []job
	for xi, x := range f.xs {
		cfg, err := f.build(x)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", f.id, err)
		}
		for ci, c := range f.curves {
			point := aggs[(xi*len(f.curves)+ci)*len(groups):][:len(groups)]
			for s := 0; s < opts.Seeds; s++ {
				seed := opts.seedFor(s, len(jobs))
				if f.replaySeeds {
					seed = opts.seedFor(s, 0)
				}
				cfg.Seed, cfg.Protocol = seed, c.protocol
				jobs = append(jobs, job{
					key:       fmt.Sprintf("%g/%s", x, c.label),
					cfg:       cfg,
					intervals: intervals,
					reduce: func(out runOut) {
						if f.groups == nil {
							point[0].Add(out.replication(seed, out.sim.TotalDeficiency()))
							return
						}
						links := out.sim.Report().Links
						for gi, g := range groups {
							point[gi].Add(out.replication(seed, g.deficiency(links)))
						}
					},
				})
			}
		}
	}
	if err := runJobs(f, jobs, opts); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", f.id, err)
	}
	res := &Result{ID: f.id, Title: f.title, XLabel: f.xlabel, YLabel: ylabel}
	for ci, c := range f.curves {
		for gi, g := range groups {
			s := Series{Label: strings.TrimSpace(c.label + " " + g.name)}
			for xi, x := range f.xs {
				a := &aggs[(xi*len(f.curves)+ci)*len(groups)+gi]
				s.addSummary(x, a.Summary(ciLevel))
				opts.Recorder.RecordAggregate(f.id, s.Label, x, "deficiency", ledger.BetterLower, a)
			}
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

// Fig3 sweeps the symmetric video network's burst probability α* at a fixed
// 90 % delivery ratio.
func Fig3() Figure {
	return &sweepFigure{
		id:      "fig3",
		title:   "Symmetric video network, 90% delivery ratio: deficiency vs arrival rate",
		xlabel:  "alpha*",
		xs:      sweepRange(0.40, 0.70, 0.05),
		curves:  labelled(rtmac.DBDP(), rtmac.LDF(), rtmac.FCSMA()),
		horizon: videoIntervals,
		build: func(x float64) (rtmac.Config, error) {
			return videoConfig(x, videoRho)
		},
	}
}

// Fig4 fixes α* = 0.55 and sweeps the required delivery ratio.
func Fig4() Figure {
	return &sweepFigure{
		id:      "fig4",
		title:   "Symmetric video network, alpha*=0.55: deficiency vs delivery ratio",
		xlabel:  "delivery ratio",
		xs:      sweepRange(0.80, 1.00, 0.04),
		curves:  labelled(rtmac.DBDP(), rtmac.LDF(), rtmac.FCSMA()),
		horizon: videoIntervals,
		build: func(x float64) (rtmac.Config, error) {
			return videoConfig(0.55, x)
		},
	}
}

// Fig7 sweeps α* on the asymmetric two-group network at 90 % delivery ratio,
// reporting group-wide deficiencies.
func Fig7() Figure {
	return &sweepFigure{
		id:      "fig7",
		title:   "Asymmetric network, 90% delivery ratio: group deficiency vs arrival rate",
		xlabel:  "alpha*",
		xs:      sweepRange(0.50, 0.80, 0.05),
		groups:  asymmetricGroups(),
		curves:  labelled(rtmac.DBDP(), rtmac.LDF(), rtmac.FCSMA()),
		horizon: videoIntervals,
		build: func(x float64) (rtmac.Config, error) {
			return asymmetricConfig(x, videoRho)
		},
	}
}

// Fig8 fixes α* = 0.7 on the asymmetric network and sweeps delivery ratio.
func Fig8() Figure {
	return &sweepFigure{
		id:      "fig8",
		title:   "Asymmetric network, alpha*=0.7: group deficiency vs delivery ratio",
		xlabel:  "delivery ratio",
		xs:      sweepRange(0.80, 1.00, 0.04),
		groups:  asymmetricGroups(),
		curves:  labelled(rtmac.DBDP(), rtmac.LDF(), rtmac.FCSMA()),
		horizon: videoIntervals,
		build: func(x float64) (rtmac.Config, error) {
			return asymmetricConfig(0.7, x)
		},
	}
}

// Fig9 sweeps the control network's Bernoulli arrival rate λ* at a fixed
// 99 % delivery ratio.
func Fig9() Figure {
	return &sweepFigure{
		id:      "fig9",
		title:   "Control network, 99% delivery ratio: deficiency vs arrival rate",
		xlabel:  "lambda*",
		xs:      sweepRange(0.60, 0.95, 0.05),
		curves:  labelled(rtmac.DBDP(), rtmac.LDF(), rtmac.FCSMA()),
		horizon: controlIntervals,
		build: func(x float64) (rtmac.Config, error) {
			return controlConfig(x, controlRho)
		},
	}
}

// Fig10 fixes λ* = 0.78 on the control network and sweeps delivery ratio.
func Fig10() Figure {
	return &sweepFigure{
		id:      "fig10",
		title:   "Control network, lambda*=0.78: deficiency vs delivery ratio",
		xlabel:  "delivery ratio",
		xs:      sweepRange(0.90, 1.00, 0.02),
		curves:  labelled(rtmac.DBDP(), rtmac.LDF(), rtmac.FCSMA()),
		horizon: controlIntervals,
		build: func(x float64) (rtmac.Config, error) {
			return controlConfig(0.78, x)
		},
	}
}

// trajectoryFigure follows the windowed timely-throughput of the link that
// holds the lowest priority at time zero, one BaseSeed run per protocol, on
// the video network at α* = 0.55 and 93 % delivery ratio.
type trajectoryFigure struct {
	id, title string
	ylabel    func(watched int, target float64) string
	curves    []curve
}

func (f *trajectoryFigure) ID() string    { return f.id }
func (f *trajectoryFigure) Title() string { return f.title }

func (f *trajectoryFigure) Run(opts RunOptions) (*Result, error) {
	opts = opts.fill()
	intervals := opts.scaled(videoIntervals)
	cfg, err := videoConfig(0.55, 0.93)
	if err != nil {
		return nil, err
	}
	required, err := rtmac.RequirementVector(cfg)
	if err != nil {
		return nil, err
	}
	// 25 checkpoints: wide enough windows that the windowed throughput of a
	// single link is not drowned in arrival noise.
	cfg.SnapshotEvery = max(intervals/25, 1)
	cfg.Seed = opts.BaseSeed
	// With identity initial priorities and link-ID tie-breaking in LDF, the
	// initially worst-off link is the last one in every policy.
	watched := videoLinks - 1
	res := &Result{
		ID:     f.id,
		Title:  f.title,
		XLabel: "interval",
		YLabel: f.ylabel(watched, required[watched]),
		Series: make([]Series, len(f.curves)),
	}
	jobs := make([]job, len(f.curves))
	for i, c := range f.curves {
		s := &res.Series[i]
		s.Label = c.label
		cfg.Protocol = c.protocol
		jobs[i] = job{key: c.label, cfg: cfg, intervals: intervals,
			reduce: func(out runOut) {
				for _, snap := range out.sim.Snapshots() {
					s.X = append(s.X, float64(snap.Intervals))
					s.Y = append(s.Y, snap.Windowed[watched])
				}
			}}
	}
	if err := runJobs(f, jobs, opts); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", f.id, err)
	}
	return res, nil
}

// Fig5 compares convergence: the cumulative timely-throughput of the
// initially lowest-priority link under DB-DP and LDF.
func Fig5() Figure {
	return &trajectoryFigure{
		id:    "fig5",
		title: "Convergence: throughput of the initially lowest-priority link (alpha*=0.55, 93% ratio)",
		ylabel: func(watched int, target float64) string {
			return fmt.Sprintf("timely-throughput of link %d over time (target %.3f)", watched, target)
		},
		curves: labelled(rtmac.DBDP(), rtmac.LDF()),
	}
}

// priorityProfileFigure regenerates Fig. 6: average timely-throughput per
// priority index under a fixed (frozen) priority ordering at α* = 0.6.
type priorityProfileFigure struct{}

// Fig6 returns the fixed-priority throughput profile.
func Fig6() Figure { return priorityProfileFigure{} }

func (priorityProfileFigure) ID() string { return "fig6" }

func (priorityProfileFigure) Title() string {
	return "Average timely-throughput per priority index under a fixed ordering (alpha*=0.6)"
}

func (f priorityProfileFigure) Run(opts RunOptions) (*Result, error) {
	opts = opts.fill()
	cfg, err := videoConfig(0.60, videoRho)
	if err != nil {
		return nil, err
	}
	cfg.Protocol = rtmac.DBDP(rtmac.WithFrozenPriorities())
	// Each replication keeps its own report so the per-link sums below run
	// in replication order, whatever order the workers finish in.
	reports := make([]rtmac.Report, opts.Seeds)
	jobs := make([]job, opts.Seeds)
	for s := range jobs {
		cfg.Seed = opts.seedFor(s, 0)
		jobs[s] = job{key: "DP (frozen)", cfg: cfg, intervals: opts.scaled(videoIntervals),
			reduce: func(out runOut) { reports[s] = out.sim.Report() }}
	}
	if err := runJobs(f, jobs, opts); err != nil {
		return nil, fmt.Errorf("experiment fig6: %w", err)
	}
	// With identity priorities, link n holds priority index n+1.
	series := Series{Label: "DP (frozen priorities)"}
	for link := 0; link < videoLinks; link++ {
		sum := 0.0
		for _, r := range reports {
			sum += r.Links[link].Throughput
		}
		series.X = append(series.X, float64(link+1))
		series.Y = append(series.Y, sum/float64(opts.Seeds))
	}
	return &Result{
		ID:     f.ID(),
		Title:  f.Title(),
		XLabel: "priority index (1 = highest)",
		YLabel: "average timely-throughput (packets/interval)",
		Series: []Series{series},
	}, nil
}

// ExtraBaselines is a beyond-paper figure: the Fig. 3 sweep extended with
// the two additional baselines this repository implements — frame-based
// CSMA (whose open-loop schedules cannot adapt to losses) and 802.11 DCF
// (whose random backoff collides). It makes the paper's introduction-level
// arguments about both schemes measurable.
func ExtraBaselines() Figure {
	return &sweepFigure{
		id:      "extra-baselines",
		title:   "All five policies on the symmetric video network (90% delivery ratio)",
		xlabel:  "alpha*",
		xs:      sweepRange(0.40, 0.70, 0.05),
		curves:  labelled(rtmac.DBDP(), rtmac.LDF(), rtmac.FCSMA(), rtmac.FrameCSMA(), rtmac.DCF()),
		horizon: videoIntervals,
		build: func(x float64) (rtmac.Config, error) {
			return videoConfig(x, videoRho)
		},
	}
}

// All returns every figure of the paper's evaluation in order.
func All() []Figure {
	return []Figure{Fig3(), Fig4(), Fig5(), Fig6(), Fig7(), Fig8(), Fig9(), Fig10()}
}

// Extended returns the paper's figures plus this repository's beyond-paper
// experiments.
func Extended() []Figure {
	return append(All(),
		ExtraBaselines(), ExtraSlotTime(), ExtraEmptyCost(), ExtraSwapPairs(),
		ExtraFading(), ExtraCorrelated(), ExtraLearning(), ExtraDelay())
}

// extended is the extended set, built on the first ByID: a figure is an
// immutable description of its runs, so every caller can share one.
var extended = sync.OnceValue(Extended)

// ByID returns the figure with the given ID, searching the extended set.
func ByID(id string) (Figure, error) {
	for _, f := range extended() {
		if f.ID() == id {
			return f, nil
		}
	}
	return nil, fmt.Errorf("experiment: unknown figure %q", id)
}
