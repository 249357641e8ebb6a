// Command feascheck probes whether a timely-throughput requirement vector is
// feasible on the network a scenario describes — its conflict graph and its
// channel, fading included: it evaluates the analytic necessary bounds (one
// per maximal clique of the conflict graph), runs the centralized LDF policy
// as an empirical probe, and optionally binary-searches the capacity
// frontier or scans the subset-level bounds (fully-interfering static
// channel only). On a graph that is not a union of cliques the probe is a
// greedy-independent-set heuristic and the bounds are only necessary.
//
// Example — where does the paper's symmetric video scenario saturate?
//
//	feascheck -profile video -links 20 -p 0.7 -arrivals video -rate 0.55 \
//	          -ratio 0.9 -frontier
//
// With -json the assessment is emitted as one machine-readable document
// carrying the per-link requirement vector (the SLO targets `rtmacwatch
// -slo` consumes), the slot margin and, with -subsets, the subset-bound
// verdict. Exit codes are unified with the other
// tools: 0 feasible, 1 infeasible, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"rtmac"
	"rtmac/scenario"
)

// report is the -json document: the feasibility verdict plus the requirement
// vector, ready to be fed to `rtmacwatch -slo`.
type report struct {
	Source                string                  `json:"source"`
	Profile               string                  `json:"profile"`
	Links                 int                     `json:"links"`
	CapacitySlots         int                     `json:"capacity_slots"`
	WorkloadSlots         float64                 `json:"workload_slots"`
	MarginSlots           float64                 `json:"margin_slots"`
	NecessaryBoundsOK     bool                    `json:"necessary_bounds_ok"`
	NecessaryBoundsReason string                  `json:"necessary_bounds_reason,omitempty"`
	ProbeDeficiency       float64                 `json:"probe_deficiency"`
	Feasible              bool                    `json:"feasible"`
	Frontier              float64                 `json:"frontier,omitempty"`
	PerLink               []rtmac.FeasibilityLink `json:"per_link"`
	SubsetBounds          *subsetBounds           `json:"subset_bounds,omitempty"`
}

// subsetBounds is the -subsets verdict: whether every subset's workload fits
// its Monte-Carlo capacity estimate, and the worst violation if not.
type subsetBounds struct {
	Satisfied      bool   `json:"satisfied"`
	WorstViolation string `json:"worst_violation,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("feascheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configPath  = fs.String("config", "", "JSON scenario file (overrides the uniform-network flags)")
		profileName = fs.String("profile", "control", "video | control")
		links       = fs.Int("links", 10, "number of links")
		p           = fs.Float64("p", 0.7, "per-link delivery probability")
		arrName     = fs.String("arrivals", "bernoulli", "bernoulli | video | fixed")
		rate        = fs.Float64("rate", 0.78, "arrival parameter: Bernoulli p, video alpha, or fixed whole count")
		ratio       = fs.Float64("ratio", 0.99, "required delivery ratio")
		intervals   = fs.Int("intervals", 3000, "probe length in intervals")
		seed        = fs.Uint64("seed", 1, "random seed")
		frontier    = fs.Bool("frontier", false, "binary-search the feasible scale of the requirement vector")
		subsets     = fs.Bool("subsets", false, "scan subset-level necessary bounds (links ≤ 14, fully-interfering static channel only)")
		jsonOut     = fs.Bool("json", false, "emit the assessment as one JSON document")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package already printed the error
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "feascheck:", err)
		return 2
	}
	var (
		cfg    rtmac.Config
		source string
		err    error
	)
	if *configPath != "" {
		source = *configPath
		cfg, _, _, err = scenario.LoadFile(*configPath)
	} else {
		// The uniform network goes through the scenario document, so the
		// flags share its names and checks. The protocol is only a
		// placeholder: the probe always runs LDF.
		source = "flags"
		cfg, _, _, err = scenario.Build(scenario.Document{
			Seed:      *seed,
			Intervals: *intervals,
			Profile:   scenario.ProfileSpec{Preset: *profileName},
			Protocol:  scenario.ProtocolSpec{Name: "ldf"},
			Links: []scenario.LinkSpec{{
				Count:         *links,
				SuccessProb:   *p,
				Arrivals:      scenario.ArrivalsSpec{Type: *arrName, Param: *rate},
				DeliveryRatio: *ratio,
			}},
		})
	}
	if err != nil {
		return fail(err)
	}
	res, err := rtmac.CheckFeasibility(cfg, *intervals)
	if err != nil {
		return fail(err)
	}
	doc := report{
		Source:                source,
		Profile:               cfg.Profile.Name(),
		Links:                 len(cfg.Links),
		CapacitySlots:         res.CapacitySlots,
		WorkloadSlots:         res.WorkloadSlots,
		MarginSlots:           float64(res.CapacitySlots) - res.WorkloadSlots,
		NecessaryBoundsOK:     res.NecessaryBoundsOK,
		NecessaryBoundsReason: res.NecessaryBoundsReason,
		ProbeDeficiency:       res.ProbeDeficiency,
		Feasible:              res.Feasible,
		PerLink:               res.PerLink,
	}
	if *frontier {
		if doc.Frontier, err = rtmac.CapacityFrontier(cfg, *intervals); err != nil {
			return fail(err)
		}
	}
	if *subsets {
		msg, err := rtmac.SubsetBoundViolation(cfg)
		if err != nil {
			return fail(err)
		}
		doc.SubsetBounds = &subsetBounds{Satisfied: msg == "", WorstViolation: msg}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return fail(err)
		}
	} else {
		printHuman(stdout, doc)
	}
	if !doc.Feasible {
		return 1
	}
	return 0
}

func printHuman(w io.Writer, doc report) {
	fmt.Fprintf(w, "%s: profile %s, %d links, workload %.2f of %d slots/interval (margin %.2f)\n",
		doc.Source, doc.Profile, doc.Links, doc.WorkloadSlots, doc.CapacitySlots, doc.MarginSlots)
	if len(doc.PerLink) > 0 {
		fmt.Fprintf(w, "requirement: q[0] = %.4f packets/interval (use -json for the full vector)\n",
			doc.PerLink[0].Required)
	}
	switch {
	case doc.NecessaryBoundsOK && doc.NecessaryBoundsReason == "":
		fmt.Fprintln(w, "necessary bounds: satisfied")
	case doc.NecessaryBoundsOK:
		fmt.Fprintf(w, "necessary bounds: satisfied — %s\n", doc.NecessaryBoundsReason)
	default:
		fmt.Fprintf(w, "necessary bounds: VIOLATED — %s\n", doc.NecessaryBoundsReason)
	}
	verdict := "FEASIBLE"
	if !doc.Feasible {
		verdict = "INFEASIBLE"
	}
	fmt.Fprintf(w, "LDF probe: deficiency %.4f — empirically %s\n", doc.ProbeDeficiency, verdict)
	if doc.Frontier != 0 {
		fmt.Fprintf(w, "capacity frontier: γ ≈ %.3f (q scaled by γ is the empirical feasibility boundary)\n",
			doc.Frontier)
	}
	switch sb := doc.SubsetBounds; {
	case sb == nil:
	case sb.Satisfied:
		fmt.Fprintln(w, "subset bounds: satisfied")
	default:
		fmt.Fprintf(w, "subset bounds: VIOLATED — %s\n", sb.WorstViolation)
	}
}
