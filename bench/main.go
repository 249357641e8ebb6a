// Command rtmacbench is the repository's layered host-time benchmark. It
// drives the simulator from one process through its public entry points
// (rtmac.NewSimulation/Run and experiment.ByID(id).Run) on four closed-loop
// workloads, checks every output against a digest, and prints each metric by
// name and unit. A traced run (-trace 1) times calls into each internal layer
// from outside instead, so a regression or a gain names its layer.
//
//	go run . -workload control -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh --workload all --seed 1 --json results.json
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 1 when any rep fails a
// correctness check. README.md documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"control", "cliques", "observed", "sweep"}

// options are the inputs every workload shares.
type options struct {
	seed uint64
	// seconds is how long the timed reps of an untraced run go on; at least
	// minReps reps run whatever it says.
	seconds float64
	// scale multiplies the work in one rep: 1 is the benchmark, the tests
	// run at 0.01.
	scale float64
}

// minReps is the fewest timed reps a run makes, so that the digest is always
// compared across reps.
const minReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome, in the format of the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable details (sample counts, tails, digests)
	// printed before the JSON line.
	notes []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: make(map[string]metric)}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one checked rep, failing it when err is non-nil.
func (r *result) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Correct = false
		r.notef("FAIL: %v", err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rtmacbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "simulation seed (BaseSeed for sweep); digests are pinned for seed 1")
	seconds := fs.Float64("seconds", 20, "how long the timed reps of each workload go on")
	trace := fs.Int("trace", 0, "1 times each internal layer instead of the end-to-end metrics")
	jsonPath := fs.String("json", "", "also write the results with their environment to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !known(*workload) {
			fmt.Fprintf(os.Stderr, "rtmacbench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "rtmacbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, scale: 1}
	env := environment()
	fmt.Fprintf(stdout, "# %s\n", env)

	results := make(map[string]*result, len(names))
	for _, name := range names {
		start := time.Now()
		var r *result
		if *trace == 1 {
			r = runTraced(name, o)
		} else {
			r = runWorkload(name, o)
		}
		results[name] = r
		printResult(stdout, name, r, time.Since(start))
	}

	final := results[names[0]]
	if len(names) > 1 {
		final = combine(names, results)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, env, *seed, *trace, results); err != nil {
			fmt.Fprintf(os.Stderr, "rtmacbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtmacbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

func runWorkload(name string, o options) *result {
	if name == "sweep" {
		return runSweep(o)
	}
	return intervalWorkloads[name].runUntraced(o)
}

func printResult(w io.Writer, name string, r *result, took time.Duration) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d (%.1fs)\n",
		name, r.Correct, r.Attempted, r.Failed, took.Seconds())
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "   %-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// combine merges the results of -workload all into one line whose metric
// names carry the workload as a prefix.
func combine(names []string, results map[string]*result) *result {
	out := newResult()
	for _, name := range names {
		r := results[name]
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, m := range r.Metrics {
			out.Metrics[name+"."+k] = m
		}
	}
	return out
}

// writeJSON records the results with their notes and the environment.
func writeJSON(path, env string, seed uint64, trace int, results map[string]*result) error {
	type noted struct {
		*result
		Notes []string `json:"notes"`
	}
	doc := struct {
		Environment string           `json:"environment"`
		Date        string           `json:"date"`
		Seed        uint64           `json:"seed"`
		Trace       int              `json:"trace"`
		Results     map[string]noted `json:"results"`
	}{env, time.Now().UTC().Format(time.RFC3339), seed, trace, make(map[string]noted, len(results))}
	for name, r := range results {
		doc.Results[name] = noted{r, r.notes}
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// environment describes the host and build the numbers were measured on.
func environment() string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s %s/%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
