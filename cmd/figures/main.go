// Command figures regenerates the paper's evaluation figures (Figs. 3–10).
//
// Usage:
//
//	figures                      # every figure at full fidelity
//	figures -fig fig3            # one figure
//	figures -scale 0.1 -seeds 1  # quick low-fidelity pass
//	figures -csv results         # also write results/<fig>.csv
//	figures -serve :8080         # watch live progress at http://localhost:8080
//	figures -ledger .ledger      # append aggregated points to the run ledger
//	figures -health -cpuprofile cpu.pprof    # runtime health + a CPU profile
//
// Each figure prints an aligned table and an ASCII chart; -csv writes the
// raw points for external plotting.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"rtmac/internal/experiment"
	"rtmac/internal/health"
	"rtmac/internal/ledger"
	"rtmac/internal/obs"
	"rtmac/internal/telemetry"
	"rtmac/internal/watch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point returning the process exit code: 0 on
// success, 1 when a figure or an output fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figID     = fs.String("fig", "", "figure to regenerate (see -list); default: the paper's fig3..fig10")
		scale     = fs.Float64("scale", 1.0, "interval-count scale factor (1 = paper fidelity)")
		seeds     = fs.Int("seeds", 3, "independent replications per point")
		csvDir    = fs.String("csv", "", "directory to write per-figure CSV files into")
		quiet     = fs.Bool("quiet", false, "suppress per-point progress output")
		list      = fs.Bool("list", false, "list available figure IDs and exit")
		extended  = fs.Bool("extended", false, "run the beyond-paper figures too")
		htmlPath  = fs.String("html", "", "write all regenerated figures into one self-contained HTML report")
		monitor   = fs.Bool("monitor", true, "run the strict invariant monitor inside every simulation; a violation fails the figure")
		serve     = fs.String("serve", "", "serve the live observability plane (dashboard, /metrics, /api/progress, /events SSE) on this address (e.g. :8080) while the sweep runs")
		ledgerDir = fs.String("ledger", "", "append this run's aggregated points to the run ledger in DIR (see ledgerctl)")
		seedList  = fs.String("seedlist", "", "comma-separated exact replication seeds, overriding -seeds and the derived schedule (e.g. 101,202); lets separately recorded ledger runs merge into exactly one combined run")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile for the whole sweep to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		healthFlag = fs.Bool("health", false, "sample runtime health (GC pauses, heap, scheduler latency) during the sweep; summary lands in the ledger manifest and on /api/health when -serve is active")
		watchFlag  = fs.Bool("watch", false, "run the SLO conformance watch engine inside every simulation and report the cross-sweep alert tally (informational: sweep points cross the capacity frontier by design, so alerts are expected)")
		sloBudget  = fs.Float64("slo-budget", 0, "deadline-miss budget fraction for the watch engine (default 0.1); setting it implies -watch")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package already printed the error
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "figures:", err)
		return code
	}
	if !(*sloBudget >= 0 && *sloBudget <= 1) {
		return fail(2, fmt.Errorf("-slo-budget: miss budget %v outside [0, 1]", *sloBudget))
	}

	if *list {
		for _, f := range experiment.Extended() {
			fmt.Fprintf(stdout, "%-16s %s\n", f.ID(), f.Title())
		}
		return 0
	}

	if *cpuprofile != "" {
		stop, err := health.StartCPUProfile(*cpuprofile)
		if err != nil {
			return fail(1, err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "figures:", err)
			}
		}()
	}

	figures := experiment.All()
	if *extended {
		figures = experiment.Extended()
	}
	if *figID != "" {
		fig, err := experiment.ByID(*figID)
		if err != nil {
			return fail(2, err)
		}
		figures = []experiment.Figure{fig}
	}
	opts := experiment.RunOptions{
		Seeds:         *seeds,
		IntervalScale: *scale,
		Monitor:       *monitor,
	}
	var tally *watch.Tally
	if *watchFlag || *sloBudget != 0 {
		tally = &watch.Tally{}
		opts.Watch = true
		opts.WatchBudget = *sloBudget
		opts.WatchTally = tally
	}
	if *seedList != "" {
		for _, part := range strings.Split(*seedList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return fail(2, fmt.Errorf("bad -seedlist entry %q: %v", part, err))
			}
			opts.SeedList = append(opts.SeedList, v)
		}
		opts.Seeds = len(opts.SeedList)
	}
	if !*quiet {
		opts.Progress = stderr
	}
	var (
		recorder *ledger.Recorder
		manifest *telemetry.Manifest
	)
	if *ledgerDir != "" {
		recorder = ledger.NewRecorder()
		opts.Recorder = recorder
		manifest = telemetry.NewManifest("figures", opts.BaseSeed)
		manifest.Config = map[string]string{
			// The effective replication count: -seedlist overrides -seeds.
			"seeds": fmt.Sprint(opts.Seeds),
			"scale": fmt.Sprint(*scale),
		}
		if *figID != "" {
			manifest.Config["fig"] = *figID
		}
		if *seedList != "" {
			manifest.Config["seedlist"] = *seedList
		}
	}
	var plane *obs.Plane
	if *serve != "" {
		plane = obs.NewPlane(nil)
		opts.Tracker = plane.Tracker
		opts.Telemetry = plane.Registry
		opts.Events = plane.Broker
		if err := plane.Start(*serve); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "observability: serving on http://%s (dashboard, /metrics, /api/progress, /events)\n",
			plane.Addr())
		if *ledgerDir != "" {
			store, err := ledger.Open(*ledgerDir)
			if err != nil {
				return fail(1, err)
			}
			plane.SetRunsProvider(func() any { return store.HistoryDoc() })
			plane.SetCompareProvider(func(refA, refB string) any { return store.CompareDoc(refA, refB) })
		}
	}
	// The health plane for a sweep is process-level: one collector sampling
	// the runtime for the whole run. Per-interval watchdogs live in rtmacsim,
	// where a single simulation owns the process; a sweep runs many at once.
	var healthCol *health.Collector
	if *healthFlag {
		var cfg health.CollectorConfig
		if plane != nil {
			cfg.Registry = plane.Registry
		}
		healthCol = health.NewCollector(cfg)
		healthCol.Start()
		if plane != nil {
			plane.SetHealthProvider(func() any {
				return health.BuildDoc(healthCol, nil)
			})
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(1, err)
		}
	}
	var htmlResults []*experiment.Result
	for _, fig := range figures {
		start := time.Now()
		res, err := fig.Run(opts)
		if err != nil {
			return fail(1, fmt.Errorf("%s: %v", fig.ID(), err))
		}
		if *htmlPath != "" {
			htmlResults = append(htmlResults, res)
		}
		if err := experiment.WriteTable(stdout, res); err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stdout)
		if err := experiment.WriteASCIIChart(stdout, res, 72, 18); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", fig.ID(), time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, res.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				return fail(1, err)
			}
			if err := experiment.WriteCSV(f, res); err != nil {
				f.Close()
				return fail(1, err)
			}
			if err := f.Close(); err != nil {
				return fail(1, err)
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
	}
	if *htmlPath != "" {
		f, err := os.Create(*htmlPath)
		if err != nil {
			return fail(1, err)
		}
		if err := experiment.WriteHTMLReport(f, htmlResults); err != nil {
			f.Close()
			return fail(1, err)
		}
		if err := f.Close(); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *htmlPath)
	}
	if healthCol != nil {
		healthCol.Stop()
		sum := healthCol.Summary()
		if manifest != nil {
			manifest.Health = &sum
		}
		fmt.Fprintf(stderr, "health: %d samples · peak heap %.1f MiB · peak %d goroutines · %d GC pauses (~%v total, max %v)\n",
			sum.Samples, float64(sum.HeapLivePeakBytes)/(1<<20), sum.GoroutinePeak,
			sum.GCPauses, time.Duration(sum.GCPauseTotalNS).Round(time.Microsecond),
			time.Duration(sum.GCPauseMaxNS).Round(time.Microsecond))
	}
	if tally != nil {
		sum := tally.Summary()
		if manifest != nil {
			manifest.Watch = sum
		}
		detail := ""
		if len(sum.ByDetector) > 0 {
			names := make([]string, 0, len(sum.ByDetector))
			for d := range sum.ByDetector {
				names = append(names, d)
			}
			sort.Strings(names)
			parts := make([]string, len(names))
			for i, d := range names {
				parts[i] = fmt.Sprintf("%s=%d", d, sum.ByDetector[d])
			}
			detail = " (" + strings.Join(parts, " ") + ")"
		}
		fmt.Fprintf(stderr, "watch: %d SLO alerts across %d simulations%s — informational; sweep points cross the capacity frontier by design\n",
			tally.Alerts(), tally.Runs(), detail)
	}
	if recorder != nil {
		scenario := "figures"
		switch {
		case *figID != "":
			scenario = *figID
		case *extended:
			scenario = "figures-extended"
		}
		manifest.Finish()
		rec, err := recorder.Finalize("figures", scenario, manifest)
		if err != nil {
			return fail(1, err)
		}
		store, err := ledger.Open(*ledgerDir)
		if err != nil {
			return fail(1, err)
		}
		id, err := store.Append(rec)
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "ledger: appended %s (%d points, %d seeds) to %s\n",
			id[:12], len(rec.Points), len(rec.Seeds), *ledgerDir)
	}
	if plane != nil {
		if err := plane.Close(); err != nil {
			return fail(1, err)
		}
	}
	if *memprofile != "" {
		if err := health.WriteHeapProfile(*memprofile); err != nil {
			return fail(1, err)
		}
	}
	return 0
}
