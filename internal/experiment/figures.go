package experiment

import (
	"fmt"
	"strings"

	"rtmac/internal/arrival"
	"rtmac/internal/core"
	"rtmac/internal/ledger"
	"rtmac/internal/mac"
	"rtmac/internal/metrics"
	"rtmac/internal/phy"
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

// videoScenario builds the symmetric video network of §VI-A: bursty-uniform
// arrivals on {1..6} with probability alpha (λ = 3.5α), deadline 20 ms,
// 330 µs exchanges.
func videoScenario(alpha, rho float64, intervals int) (scenario, error) {
	proc, err := arrival.PaperVideo(alpha)
	if err != nil {
		return scenario{}, err
	}
	av, err := arrival.Uniform(videoLinks, proc)
	if err != nil {
		return scenario{}, err
	}
	return scenario{
		profile:     phy.Video(),
		successProb: uniformVec(videoLinks, videoP),
		arrivals:    av,
		required:    uniformVec(videoLinks, rho*proc.Mean()),
		intervals:   intervals,
	}, nil
}

// asymmetricScenario builds the two-group video network of §VI-A: group 1
// (links 0..9) has p = 0.5 and α = 0.5·α*; group 2 (links 10..19) has
// p = 0.8 and α = α*.
func asymmetricScenario(alphaStar, rho float64, intervals int) (scenario, error) {
	procs := make([]arrival.Process, videoLinks)
	probs := make([]float64, videoLinks)
	required := make([]float64, videoLinks)
	for link := 0; link < videoLinks; link++ {
		alpha := alphaStar
		p := 0.8
		if link < videoLinks/2 {
			alpha = 0.5 * alphaStar
			p = 0.5
		}
		proc, err := arrival.PaperVideo(alpha)
		if err != nil {
			return scenario{}, err
		}
		procs[link] = proc
		probs[link] = p
		required[link] = rho * proc.Mean()
	}
	av, err := arrival.NewIndependent(procs...)
	if err != nil {
		return scenario{}, err
	}
	return scenario{
		profile:     phy.Video(),
		successProb: probs,
		arrivals:    av,
		required:    required,
		intervals:   intervals,
	}, nil
}

// controlScenario builds the ultra-low-latency network of §VI-B: Bernoulli
// arrivals with mean lambda, deadline 2 ms, 120 µs exchanges.
func controlScenario(lambda, rho float64, intervals int) (scenario, error) {
	proc, err := arrival.NewBernoulli(lambda)
	if err != nil {
		return scenario{}, err
	}
	av, err := arrival.Uniform(controlLinks, proc)
	if err != nil {
		return scenario{}, err
	}
	return scenario{
		profile:     phy.Control(),
		successProb: uniformVec(controlLinks, controlP),
		arrivals:    av,
		required:    uniformVec(controlLinks, rho*lambda),
		intervals:   intervals,
	}, nil
}

// linkGroup is a named subset of links whose deficiencies one curve sums;
// the unnamed group with nil links stands for every link.
type linkGroup struct {
	name  string
	links []int
}

// deficiency is a run's timely-throughput deficiency over the group.
func (g linkGroup) deficiency(col *metrics.Collector) float64 {
	if g.links == nil {
		return col.TotalDeficiency()
	}
	return col.GroupDeficiency(g.links)
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
	build             func(x float64, opts RunOptions) (scenario, error)
	groups            []linkGroup // nil for total deficiency
	specs             []protocolSpec
	// replaySeeds gives every point the same replication seeds,
	// seedFor(s, 0), instead of folding the job index in.
	replaySeeds bool
	// fresh builds a new scenario for every job: its arrival process keeps
	// state across intervals, so concurrent simulations cannot share one.
	fresh bool
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
	// aggs[(xi*len(specs)+si)*len(groups)+gi] is one curve point.
	aggs := make([]stats.PointAggregate, len(f.xs)*len(f.specs)*len(groups))
	var jobs []job
	for xi, x := range f.xs {
		shared, err := f.build(x, opts)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", f.id, err)
		}
		for si, spec := range f.specs {
			point := aggs[(xi*len(f.specs)+si)*len(groups):][:len(groups)]
			for s := 0; s < opts.Seeds; s++ {
				sc, seed := shared, opts.seedFor(s, len(jobs))
				if f.fresh {
					if sc, err = f.build(x, opts); err != nil {
						return nil, fmt.Errorf("experiment %s: %w", f.id, err)
					}
				}
				if f.replaySeeds {
					seed = opts.seedFor(s, 0)
				}
				jobs = append(jobs, job{
					key:  fmt.Sprintf("%g/%s", x, spec.label),
					spec: spec,
					sc:   sc,
					seed: seed,
					reduce: func(out runOut) {
						for gi, g := range groups {
							point[gi].Add(out.replication(seed, g.deficiency(out.col)))
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
	for si, spec := range f.specs {
		for gi, g := range groups {
			s := Series{Label: strings.TrimSpace(spec.label + " " + g.name)}
			for xi, x := range f.xs {
				a := &aggs[(xi*len(f.specs)+si)*len(groups)+gi]
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
		id:     "fig3",
		title:  "Symmetric video network, 90% delivery ratio: deficiency vs arrival rate",
		xlabel: "alpha*",
		xs:     sweepRange(0.40, 0.70, 0.05),
		specs:  []protocolSpec{dbdpSpec(), ldfSpec(), fcsmaSpec()},
		build: func(x float64, opts RunOptions) (scenario, error) {
			return videoScenario(x, videoRho, opts.scaled(videoIntervals))
		},
	}
}

// Fig4 fixes α* = 0.55 and sweeps the required delivery ratio.
func Fig4() Figure {
	return &sweepFigure{
		id:     "fig4",
		title:  "Symmetric video network, alpha*=0.55: deficiency vs delivery ratio",
		xlabel: "delivery ratio",
		xs:     sweepRange(0.80, 1.00, 0.04),
		specs:  []protocolSpec{dbdpSpec(), ldfSpec(), fcsmaSpec()},
		build: func(x float64, opts RunOptions) (scenario, error) {
			return videoScenario(0.55, x, opts.scaled(videoIntervals))
		},
	}
}

// Fig7 sweeps α* on the asymmetric two-group network at 90 % delivery ratio,
// reporting group-wide deficiencies.
func Fig7() Figure {
	return &sweepFigure{
		id:     "fig7",
		title:  "Asymmetric network, 90% delivery ratio: group deficiency vs arrival rate",
		xlabel: "alpha*",
		xs:     sweepRange(0.50, 0.80, 0.05),
		groups: asymmetricGroups(),
		specs:  []protocolSpec{dbdpSpec(), ldfSpec(), fcsmaSpec()},
		build: func(x float64, opts RunOptions) (scenario, error) {
			return asymmetricScenario(x, videoRho, opts.scaled(videoIntervals))
		},
	}
}

// Fig8 fixes α* = 0.7 on the asymmetric network and sweeps delivery ratio.
func Fig8() Figure {
	return &sweepFigure{
		id:     "fig8",
		title:  "Asymmetric network, alpha*=0.7: group deficiency vs delivery ratio",
		xlabel: "delivery ratio",
		xs:     sweepRange(0.80, 1.00, 0.04),
		groups: asymmetricGroups(),
		specs:  []protocolSpec{dbdpSpec(), ldfSpec(), fcsmaSpec()},
		build: func(x float64, opts RunOptions) (scenario, error) {
			return asymmetricScenario(0.7, x, opts.scaled(videoIntervals))
		},
	}
}

// Fig9 sweeps the control network's Bernoulli arrival rate λ* at a fixed
// 99 % delivery ratio.
func Fig9() Figure {
	return &sweepFigure{
		id:     "fig9",
		title:  "Control network, 99% delivery ratio: deficiency vs arrival rate",
		xlabel: "lambda*",
		xs:     sweepRange(0.60, 0.95, 0.05),
		specs:  []protocolSpec{dbdpSpec(), ldfSpec(), fcsmaSpec()},
		build: func(x float64, opts RunOptions) (scenario, error) {
			return controlScenario(x, controlRho, opts.scaled(controlIntervals))
		},
	}
}

// Fig10 fixes λ* = 0.78 on the control network and sweeps delivery ratio.
func Fig10() Figure {
	return &sweepFigure{
		id:     "fig10",
		title:  "Control network, lambda*=0.78: deficiency vs delivery ratio",
		xlabel: "delivery ratio",
		xs:     sweepRange(0.90, 1.00, 0.02),
		specs:  []protocolSpec{dbdpSpec(), ldfSpec(), fcsmaSpec()},
		build: func(x float64, opts RunOptions) (scenario, error) {
			return controlScenario(0.78, x, opts.scaled(controlIntervals))
		},
	}
}

// trajectoryFigure follows the windowed timely-throughput of the link that
// holds the lowest priority at time zero, one BaseSeed run per protocol, on
// the video network at α* = 0.55 and 93 % delivery ratio.
type trajectoryFigure struct {
	id, title string
	ylabel    func(watched int, target float64) string
	specs     []protocolSpec
}

func (f *trajectoryFigure) ID() string    { return f.id }
func (f *trajectoryFigure) Title() string { return f.title }

func (f *trajectoryFigure) Run(opts RunOptions) (*Result, error) {
	opts = opts.fill()
	intervals := opts.scaled(videoIntervals)
	sc, err := videoScenario(0.55, 0.93, intervals)
	if err != nil {
		return nil, err
	}
	// 25 checkpoints: wide enough windows that the windowed throughput of a
	// single link is not drowned in arrival noise.
	sc.seriesEvery = max(intervals/25, 1)
	// With identity initial priorities and link-ID tie-breaking in LDF, the
	// initially worst-off link is the last one in every policy.
	watched := videoLinks - 1
	res := &Result{
		ID:     f.id,
		Title:  f.title,
		XLabel: "interval",
		YLabel: f.ylabel(watched, sc.required[watched]),
		Series: make([]Series, len(f.specs)),
	}
	jobs := make([]job, len(f.specs))
	for i, spec := range f.specs {
		s := &res.Series[i]
		s.Label = spec.label
		jobs[i] = job{key: spec.label, spec: spec, sc: sc, seed: opts.BaseSeed,
			reduce: func(out runOut) {
				for _, snap := range out.col.Series() {
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
		specs: []protocolSpec{dbdpSpec(), ldfSpec()},
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
	sc, err := videoScenario(0.60, videoRho, opts.scaled(videoIntervals))
	if err != nil {
		return nil, err
	}
	spec := protocolSpec{label: "DP (frozen)", collisionFree: true, build: func(n int) (mac.Protocol, error) {
		return core.New(n, core.PaperDebtGlauber(), core.WithFrozenPriorities())
	}}
	// Each replication keeps its own collector so the per-link sums below
	// run in replication order, whatever order the workers finish in.
	cols := make([]*metrics.Collector, opts.Seeds)
	jobs := make([]job, opts.Seeds)
	for s := range jobs {
		jobs[s] = job{key: spec.label, spec: spec, sc: sc, seed: opts.seedFor(s, 0),
			reduce: func(out runOut) { cols[s] = out.col }}
	}
	if err := runJobs(f, jobs, opts); err != nil {
		return nil, fmt.Errorf("experiment fig6: %w", err)
	}
	// With identity priorities, link n holds priority index n+1.
	series := Series{Label: "DP (frozen priorities)"}
	for link := 0; link < videoLinks; link++ {
		sum := 0.0
		for _, col := range cols {
			sum += col.Throughput(link)
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
		id:     "extra-baselines",
		title:  "All five policies on the symmetric video network (90% delivery ratio)",
		xlabel: "alpha*",
		xs:     sweepRange(0.40, 0.70, 0.05),
		specs:  []protocolSpec{dbdpSpec(), ldfSpec(), fcsmaSpec(), framecsmaSpec(), dcfSpec()},
		build: func(x float64, opts RunOptions) (scenario, error) {
			return videoScenario(x, videoRho, opts.scaled(videoIntervals))
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

// ByID returns the figure with the given ID, searching the extended set.
func ByID(id string) (Figure, error) {
	for _, f := range Extended() {
		if f.ID() == id {
			return f, nil
		}
	}
	return nil, fmt.Errorf("experiment: unknown figure %q", id)
}
