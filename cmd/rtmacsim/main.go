// Command rtmacsim runs one real-time MAC simulation from command-line
// flags and prints the per-link report.
//
// Examples:
//
//	# The paper's control scenario under DB-DP:
//	rtmacsim -protocol dbdp -profile control -links 10 -p 0.7 \
//	         -arrivals bernoulli -rate 0.78 -ratio 0.99 -intervals 20000
//
//	# The video scenario under FCSMA:
//	rtmacsim -protocol fcsma -profile video -links 20 -p 0.7 \
//	         -arrivals video -rate 0.55 -ratio 0.9 -intervals 5000
//
//	# Record every artifact of a run into one directory, then audit it:
//	rtmacsim -protocol dbdp -intervals 400 -seed 7 -record run
//	rtmacsim -check run
//
//	# With the runtime health plane: GC/scheduler telemetry, slot-budget
//	# watchdog, /api/health + /debug/pprof:
//	rtmacsim -protocol dbdp -intervals 200000 -health -serve :8080
//
// -record DIR writes events.jsonl (every event), journeys.jsonl (every
// packet), flight.jsonl and flight.txt (the monitor's flight recorder),
// trace.json (Perfetto), metrics.prom, metrics.json and manifest.json, and
// with -health also health.json. -check PATH validates a record directory or
// one of its artifacts by base name: the event audit for events.jsonl and
// flight.jsonl, every span and the cause attribution for journeys.jsonl, the
// Perfetto format for trace.json, the Prometheus
// exposition for metrics.prom, and the health document for health.json.
//
// Exit codes: 0 success, 1 the run failed or -check found a problem, 2 usage
// or configuration error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"rtmac"
	"rtmac/internal/health"
	"rtmac/internal/journey"
	"rtmac/internal/ledger"
	"rtmac/internal/stats"
	"rtmac/internal/telemetry"
	"rtmac/scenario"
	"rtmac/topology"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed command line.
type options struct {
	config, protocol, profile, arrivals string
	links, intervals, pairs             int
	p, rate, ratio                      float64
	seed                                uint64
	timeline, delay, monitor, strict    bool
	cpuprofile, memprofile              string
	serve, ledger, record, check        string
	health                              bool
	slotBudget                          time.Duration
	watch                               bool
	sloBudget                           float64
	perturbK                            int64
	perturbLink, perturbExtra           int
}

// run is the testable entry point: it parses args, runs the simulation or
// the -check validators, and returns the process exit code. With -serve it
// keeps serving after the run until ctx is cancelled or the process is
// interrupted.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtmacsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.config, "config", "", "JSON scenario file (overrides the other flags; see package rtmac/scenario)")
	fs.StringVar(&o.protocol, "protocol", "dbdp", "dbdp | ldf | eldf | fcsma | framecsma | tdma | dcf")
	fs.StringVar(&o.profile, "profile", "control", "video | control")
	fs.IntVar(&o.links, "links", 10, "number of links")
	fs.Float64Var(&o.p, "p", 0.7, "per-link delivery probability")
	fs.StringVar(&o.arrivals, "arrivals", "bernoulli", "bernoulli | video | fixed")
	fs.Float64Var(&o.rate, "rate", 0.78, "arrival parameter: Bernoulli p, video alpha, or fixed whole count")
	fs.Float64Var(&o.ratio, "ratio", 0.99, "required delivery ratio")
	fs.IntVar(&o.intervals, "intervals", 20000, "simulated intervals")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.pairs, "pairs", 1, "DB-DP swap pairs per interval (Remark 6 extension; dbdp only)")
	fs.BoolVar(&o.timeline, "timeline", false, "render the final interval as an ASCII packet timeline")
	fs.BoolVar(&o.delay, "delay", false, "report delivery-delay statistics (mean, p50/p95/p99, max)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile taken after the run to this file")
	fs.BoolVar(&o.monitor, "monitor", false, "run the invariant monitor over the live event stream and report violations")
	fs.BoolVar(&o.strict, "strict", false, "with the monitor, abort the run at the first invariant violation (implies -monitor)")
	fs.StringVar(&o.serve, "serve", "", "serve the live observability plane (dashboard, /metrics, /api/progress, /api/links, /events SSE) on this address (e.g. :8080); after the run the server stays up with the final state until interrupted")
	fs.StringVar(&o.ledger, "ledger", "", "append the run's final metrics (with mergeable partials) to the run ledger in DIR; inspect with ledgerctl")
	fs.BoolVar(&o.health, "health", false, "enable the runtime health plane: GC/scheduler telemetry, slot-budget watchdog, /api/health on -serve, health summary in manifests")
	fs.DurationVar(&o.slotBudget, "slot-budget", 0, "wall-clock budget per simulated interval for the -health watchdog (default: one simulated interval; negative disables the watchdog)")
	fs.BoolVar(&o.watch, "watch", false, "run the SLO conformance engine over the live event stream: burn-rate, delivery CUSUM, debt-drift and expiry-spike detectors against the requirement vector (or the scenario's slo section); alerts flow into the event stream and /api/alerts")
	fs.Float64Var(&o.sloBudget, "slo-budget", 0, "deadline-miss budget for the -watch burn-rate detector, as a fraction of each link's target (0 = scenario's slo budget, or the default 0.1)")
	fs.Int64Var(&o.perturbK, "perturb-interval", -1, "inject one extra packet arrival at this interval (0-based; -1 = off); with -record this is the rundiff divergence drill")
	fs.IntVar(&o.perturbLink, "perturb-link", 0, "link receiving the -perturb-interval injection")
	fs.IntVar(&o.perturbExtra, "perturb-extra", 1, "packets injected by -perturb-interval")
	fs.StringVar(&o.record, "record", "", "record the run into DIR: events.jsonl, journeys.jsonl, flight.jsonl/.txt (implies -monitor), trace.json (Perfetto), metrics.prom/.json, manifest.json, and health.json with -health")
	fs.StringVar(&o.check, "check", "", "validate a -record directory, or one of its events.jsonl, flight.jsonl, journeys.jsonl, trace.json, metrics.prom or health.json, then exit")
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package already printed the error
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rtmacsim: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if !(o.sloBudget >= 0 && o.sloBudget <= 1) {
		fmt.Fprintf(stderr, "rtmacsim: -slo-budget: miss budget %v outside [0, 1]\n", o.sloBudget)
		return 2
	}
	if o.check != "" {
		return check(o.check, stdout, stderr)
	}
	cfg, intervals, topo, err := o.scenario()
	if err != nil {
		fmt.Fprintln(stderr, "rtmacsim:", err)
		return 2
	}
	sim, err := rtmac.NewSimulation(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "rtmacsim:", err)
		return 2
	}
	if err := simulate(ctx, o, sim, cfg, intervals, topo, stdout); err != nil {
		fmt.Fprintln(stderr, "rtmacsim:", err)
		return 1
	}
	return 0
}

// scenario assembles the run's configuration: the -config file, or the
// uniform network the flags describe as a scenario document, so both paths
// share the scenario package's names and validation.
func (o options) scenario() (rtmac.Config, int, *topology.Network, error) {
	var (
		cfg       rtmac.Config
		topo      *topology.Network
		intervals int
		err       error
	)
	if o.config != "" {
		cfg, topo, intervals, err = scenario.LoadFile(o.config)
	} else {
		if o.pairs < 1 {
			return rtmac.Config{}, 0, nil, fmt.Errorf("-pairs %d must be at least 1", o.pairs)
		}
		cfg, topo, intervals, err = scenario.Build(scenario.Document{
			Seed:      o.seed,
			Intervals: o.intervals,
			Profile:   scenario.ProfileSpec{Preset: o.profile},
			Protocol:  scenario.ProtocolSpec{Name: o.protocol, Pairs: o.pairs},
			Links: []scenario.LinkSpec{{
				Count:         o.links,
				SuccessProb:   o.p,
				Arrivals:      scenario.ArrivalsSpec{Type: o.arrivals, Param: o.rate},
				DeliveryRatio: o.ratio,
			}},
		})
	}
	if err != nil {
		return rtmac.Config{}, 0, nil, err
	}
	if o.perturbK >= 0 {
		cfg.Perturb = &rtmac.Perturbation{K: o.perturbK, Link: o.perturbLink, Extra: o.perturbExtra}
	}
	return cfg, intervals, topo, nil
}

// simulate runs sim, built from cfg, with the planes o asks for and prints
// the report. Every stream -record opened is flushed and closed on every
// return path, a failed run included.
func simulate(ctx context.Context, o options, sim *rtmac.Simulation, cfg rtmac.Config, intervals int, topo *topology.Network, stdout io.Writer) (err error) {
	if cfg.Conflicts != nil {
		fmt.Fprintf(stdout, "%s\n", cfg.Conflicts)
	}
	// closers flushes and closes the streams -record opened.
	var closers []func() error
	defer func() { err = errors.Join(err, closeAll(closers...)) }()
	var (
		jt     *rtmac.Journeys
		stream *rtmac.EventStream
		trace  *rtmac.PerfettoTrace
	)
	if o.record != "" {
		if err := os.MkdirAll(o.record, 0o755); err != nil {
			return err
		}
		var f [3]*os.File
		for i, name := range [...]string{"journeys.jsonl", "events.jsonl", "trace.json"} {
			if f[i], err = os.Create(filepath.Join(o.record, name)); err != nil {
				return err
			}
			closers = append(closers, f[i].Close)
		}
		if jt, err = sim.EnableJourneys(f[0], 1); err != nil {
			return err
		}
		stream = sim.StreamEvents(f[1])
		trace = sim.ExportPerfetto(f[2])
		// Each stream's buffered tail goes out before its file closes.
		closers = append([]func() error{jt.Flush, stream.Flush, trace.Flush}, closers...)
	}
	var dl *rtmac.Delay
	if o.delay {
		if dl, err = sim.EnableDelayStats(200); err != nil {
			return err
		}
	}
	var dq *rtmac.DelayQuantiles
	if o.ledger != "" {
		if dq, err = sim.EnableDelaySketch(); err != nil {
			return err
		}
	}
	var mon *rtmac.Monitor
	if o.monitor || o.strict || o.record != "" || o.timeline {
		if mon, err = sim.EnableMonitor(rtmac.MonitorConfig{Strict: o.strict}); err != nil {
			return err
		}
	}
	var hp *rtmac.Health
	if o.health {
		hp, err = sim.EnableHealth(rtmac.HealthConfig{SlotBudget: o.slotBudget})
		if err != nil {
			return err
		}
		defer hp.Stop() // idempotent; stops the sampling goroutine on error paths too
		fmt.Fprintln(stdout, "health: runtime collector + slot-budget watchdog on")
	}
	// stopHealth takes the health plane's final collector round and saves
	// its document into the record directory.
	stopHealth := func() error {
		hp.Stop()
		if o.record == "" {
			return nil
		}
		return writeFile(filepath.Join(o.record, "health.json"), hp.WriteJSON)
	}
	var wtch *rtmac.Watch
	if o.watch || o.sloBudget != 0 {
		if wtch, err = sim.EnableWatch(rtmac.WatchConfig{Budget: o.sloBudget}); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "watch: SLO conformance engine on (burn rate, delivery CUSUM, debt drift, expiry spike)")
	}
	var obsrv *rtmac.Observability
	if o.serve != "" {
		if obsrv, err = sim.ServeObservability(o.serve, intervals); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "observability: serving on http://%s (dashboard, /metrics, /api/progress, /events)\n",
			obsrv.Addr())
		if o.ledger != "" {
			if err := obsrv.ServeRunLedger(o.ledger); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "observability: run history from %s on /history and /api/runs\n", o.ledger)
		}
	}
	if o.cpuprofile != "" {
		stopProfile, perr := health.StartCPUProfile(o.cpuprofile)
		if perr != nil {
			return perr
		}
		defer func() { err = errors.Join(err, stopProfile()) }()
	}
	start := time.Now()
	if err := sim.Run(intervals); err != nil {
		// A strict-mode abort still gets its post-mortem artifacts: the
		// violating window is exactly what the flight recorder retains.
		if mon != nil {
			dumpFlightRecorder(mon, o.record, stdout)
			reportViolations(mon, stdout)
		}
		if wtch != nil {
			reportAlerts(wtch, stdout)
		}
		return err
	}
	if o.record != "" {
		if err := closeAll(closers...); err != nil {
			return err
		}
		closers = nil
		agg := jt.Attribution()
		fmt.Fprintf(stdout, "record: %d events, %d of %d packet journeys, %d trace events -> %s\n",
			stream.Count(), jt.Count(), jt.Seen(), trace.Count(), o.record)
		fmt.Fprintf(stdout, "  delivered %d | expired-in-queue %d | lost-to-channel %d | lost-to-collision %d | never-won-contention %d\n",
			agg.Delivered, agg.ExpiredInQueue, agg.LostToChannel, agg.LostToCollision, agg.NeverWon)
	}
	if mon != nil {
		dumpFlightRecorder(mon, o.record, stdout)
		reportViolations(mon, stdout)
	}
	if wtch != nil {
		reportAlerts(wtch, stdout)
	}
	if hp != nil && o.serve == "" {
		// Final collector round before manifests are stamped; with -serve the
		// plane stays live until shutdown.
		if err := stopHealth(); err != nil {
			return err
		}
	}
	if o.memprofile != "" {
		if err := health.WriteHeapProfile(o.memprofile); err != nil {
			return err
		}
	}
	if o.record != "" {
		if err := writeMetrics(sim, cfg, intervals, o.record); err != nil {
			return err
		}
	}
	rep := sim.Report()
	fmt.Fprint(stdout, rep)
	if topo != nil {
		fmt.Fprintln(stdout, "link names:")
		for i := range rep.Links {
			name, err := topo.LinkName(i)
			if err != nil {
				return err
			}
			kind, err := topo.KindOf(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  %4d = %s (%s)\n", i, name, kind)
		}
	}
	fmt.Fprintf(stdout, "simulated %d intervals (%v of channel time) in %v\n",
		intervals, sim.Now().Std(), time.Since(start).Round(time.Millisecond))
	if hp != nil {
		printHealth(hp.Summary(), stdout)
	}
	if dl != nil && dl.Count() > 0 {
		var q [3]rtmac.Time
		for i, phi := range []float64{0.5, 0.95, 0.99} {
			if q[i], err = dl.Quantile(phi); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "delivery delay over %d packets: mean %v, p50 %v, p95 %v, p99 %v, max %v\n",
			dl.Count(), dl.Mean(), q[0], q[1], q[2], dl.Max())
	}
	if o.ledger != "" {
		if err := appendLedger(sim, cfg, intervals, rep, dq, o.ledger, stdout); err != nil {
			return err
		}
	}
	if o.timeline && intervals > 0 {
		fmt.Fprintln(stdout)
		if err := mon.RenderInterval(stdout, int64(intervals-1), 100); err != nil {
			return err
		}
	}
	if obsrv != nil {
		// Keep the final metrics, progress and dashboard inspectable after
		// the run, until the caller cancels ctx or the process is told to
		// stop.
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(stdout, "observability: run complete; serving final state on http://%s until interrupted\n",
			obsrv.Addr())
		<-ctx.Done()
		if hp != nil {
			if err := stopHealth(); err != nil {
				return err
			}
		}
		return obsrv.Close()
	}
	return nil
}

// closeAll runs every step, in order, even when an earlier one fails, and
// returns all failures joined. A failed run must still flush and close every
// stream -record opened, or a file can lose its buffered tail mid-line.
func closeAll(steps ...func() error) error {
	errs := make([]error, len(steps))
	for i, step := range steps {
		errs[i] = step()
	}
	return errors.Join(errs...)
}

// writeFile creates path, renders into it and closes it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(render(f), f.Close())
}

// writeMetrics writes the metric registry in Prometheus text format
// (metrics.prom), a JSON snapshot (metrics.json) and the run manifest
// (manifest.json) into dir.
func writeMetrics(sim *rtmac.Simulation, cfg rtmac.Config, intervals int, dir string) error {
	tele := sim.Telemetry()
	manifest := sim.Manifest("rtmacsim", map[string]string{
		"intervals": fmt.Sprint(intervals),
		"links":     fmt.Sprint(len(cfg.Links)),
	})
	return errors.Join(
		writeFile(filepath.Join(dir, "metrics.prom"), tele.WritePrometheus),
		writeFile(filepath.Join(dir, "metrics.json"), tele.WriteJSON),
		writeFile(filepath.Join(dir, "manifest.json"), manifest.WriteJSON),
	)
}

// printHealth prints the health plane's one-line run summary.
func printHealth(sum telemetry.HealthSummary, stdout io.Writer) {
	fmt.Fprintf(stdout, "health: %d samples · peak heap %.1f MiB · %d GC pauses (~%v total, max %v)",
		sum.Samples, float64(sum.HeapLivePeakBytes)/(1<<20), sum.GCPauses,
		time.Duration(sum.GCPauseTotalNS).Round(time.Microsecond),
		time.Duration(sum.GCPauseMaxNS).Round(time.Microsecond))
	if sum.WatchdogIntervals > 0 {
		fmt.Fprintf(stdout, " · slot budget %v: %d/%d overruns",
			time.Duration(sum.WatchdogBudgetNS), sum.Overruns, sum.WatchdogIntervals)
		if sum.Overruns > 0 {
			fmt.Fprintf(stdout, " (worst +%v; gc %d / sched %d / user %d)",
				time.Duration(sum.MaxOverrunNS).Round(time.Microsecond),
				sum.StallsGC, sum.StallsSched, sum.StallsUser)
		}
	}
	fmt.Fprintln(stdout)
}

// appendLedger reduces the finished run to one ledger record — total
// deficiency (with its P² delay quantiles) plus per-link delivery ratio and
// throughput, every point carrying its seed-tagged replication — and appends
// it to the content-addressed store at dir.
// A later `ledgerctl merge` of same-config different-seed records reproduces
// the multi-seed aggregate exactly.
func appendLedger(sim *rtmac.Simulation, cfg rtmac.Config, intervals int, rep rtmac.Report, dq *rtmac.DelayQuantiles, dir string, stdout io.Writer) error {
	rec := ledger.NewRecorder()
	defRep := stats.Replication{Seed: cfg.Seed, Value: rep.TotalDeficiency}
	if dq != nil {
		defRep.DelayP50 = dq.P50()
		defRep.DelayP95 = dq.P95()
		defRep.DelayP99 = dq.P99()
		defRep.DelayCount = dq.Count()
	}
	rec.RecordReplication("run", rep.Protocol, 0, "deficiency", ledger.BetterLower, defRep)
	for i, l := range rep.Links {
		rec.RecordReplication("run", rep.Protocol, float64(i), "delivery_ratio", ledger.BetterHigher,
			stats.Replication{Seed: cfg.Seed, Value: l.DeliveryRatio})
		rec.RecordReplication("run", rep.Protocol, float64(i), "throughput", ledger.BetterHigher,
			stats.Replication{Seed: cfg.Seed, Value: l.Throughput})
	}
	manifest := sim.Manifest("rtmacsim", map[string]string{
		"intervals": fmt.Sprint(intervals),
		"links":     fmt.Sprint(len(cfg.Links)),
	}).Raw()
	scenario := fmt.Sprintf("%s %d links", rep.Protocol, len(cfg.Links))
	record, err := rec.Finalize("run", scenario, manifest)
	if err != nil {
		return err
	}
	store, err := ledger.Open(dir)
	if err != nil {
		return err
	}
	id, err := store.Append(record)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ledger: appended %s (%d points, seed %d) to %s\n",
		id[:12], len(record.Points), cfg.Seed, dir)
	return nil
}

// dumpFlightRecorder writes the retained event window to flight.jsonl in the
// record directory (auditable with -check) and a human-readable timeline to
// flight.txt. Best-effort: called on the strict-abort path too, where the
// run error is the news and a dump failure must not mask it.
func dumpFlightRecorder(mon *rtmac.Monitor, dir string, stdout io.Writer) {
	if dir == "" {
		return
	}
	err := errors.Join(
		writeFile(filepath.Join(dir, "flight.jsonl"), mon.WriteFlightRecorder),
		writeFile(filepath.Join(dir, "flight.txt"), mon.WriteFlightRecorderTimeline),
	)
	if err != nil {
		fmt.Fprintln(stdout, "flight recorder:", err)
		return
	}
	fmt.Fprintf(stdout, "flight recorder: %d events -> %s (timeline flight.txt)\n",
		mon.FlightRecorderEvents(), filepath.Join(dir, "flight.jsonl"))
}

// reportViolations prints the monitor's verdict and details the retained
// violations when there are any.
func reportViolations(mon *rtmac.Monitor, stdout io.Writer) {
	if mon.Count() == 0 {
		fmt.Fprintln(stdout, "monitor: no invariant violations")
		return
	}
	fmt.Fprintf(stdout, "monitor: %d invariant violations\n", mon.Count())
	for _, v := range mon.Violations() {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
}

// reportAlerts prints the watch engine's verdict: a clean-bill line when no
// detector fired, otherwise the counts plus the retained transitions.
func reportAlerts(w *rtmac.Watch, stdout io.Writer) {
	if w.Count() == 0 {
		fmt.Fprintln(stdout, "watch: no SLO alerts")
		return
	}
	fmt.Fprintf(stdout, "watch: %d SLO alerts (%d still firing)\n", w.Count(), w.Firing())
	for _, a := range w.Alerts() {
		fmt.Fprintf(stdout, "  %s\n", a)
	}
}

// checkers maps each record artifact that has a validator to it; -check
// picks one by base name.
var checkers = map[string]func(r io.Reader) (string, error){
	"events.jsonl":   checkEvents,
	"flight.jsonl":   checkEvents,
	"journeys.jsonl": checkJourneys,
	"trace.json":     checkPerfetto,
	"metrics.prom":   checkMetrics,
	"health.json":    checkHealthDoc,
}

// check validates a record directory — every artifact with a validator,
// health.json only when present — or a single artifact. It returns 0 when
// everything validates, 1 when anything is missing or invalid, and 2 when
// path is neither a directory nor an artifact -check knows.
func check(path string, stdout, stderr io.Writer) int {
	var names []string
	for name := range checkers {
		names = append(names, name)
	}
	sort.Strings(names)
	paths := []string{path}
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		paths = paths[:0]
		for _, name := range names {
			p := filepath.Join(path, name)
			if _, err := os.Stat(p); name == "health.json" && errors.Is(err, os.ErrNotExist) {
				continue
			}
			paths = append(paths, p)
		}
	} else if checkers[filepath.Base(path)] == nil {
		fmt.Fprintf(stderr, "rtmacsim: -check %s: want a record directory or one of %s\n",
			path, strings.Join(names, ", "))
		return 2
	}
	code := 0
	for _, p := range paths {
		err := func() error {
			f, err := os.Open(p)
			if err != nil {
				return err
			}
			defer f.Close()
			verdict, err := checkers[filepath.Base(p)](f)
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			fmt.Fprintf(stdout, "%s: %s\n", p, verdict)
			return nil
		}()
		if err != nil {
			fmt.Fprintln(stderr, "rtmacsim:", err)
			code = 1
		}
	}
	return code
}

// checkEvents audits a JSONL event stream end to end: every line must parse,
// at least one event must be present, and the recorded run must pass the
// invariant checkers (offline, with the monitoring configuration inferred
// from the stream).
func checkEvents(r io.Reader) (string, error) {
	events, err := rtmac.DecodeEvents(r)
	if err != nil {
		return "", err
	}
	if len(events) == 0 {
		return "", fmt.Errorf("no events")
	}
	violations, err := rtmac.AuditEvents(events)
	if err != nil {
		return "", err
	}
	if len(violations) > 0 {
		lines := make([]string, len(violations))
		for i, v := range violations {
			lines[i] = "  " + v.String()
		}
		return "", fmt.Errorf("%d invariant violations:\n%s", len(violations), strings.Join(lines, "\n"))
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	counts := make([]string, 0, 8)
	for _, kind := range []string{"tx", "interval", "swap", "debt", "backoff", "prio", "violation", "alert"} {
		counts = append(counts, fmt.Sprintf("%d %s", kinds[kind], kind))
	}
	return fmt.Sprintf("%d events ok (%s); invariant audit clean", len(events), strings.Join(counts, ", ")), nil
}

// checkJourneys validates a packet-journey stream: every line must parse and
// every journey's spans must pass Journey.Validate, the error naming the
// first line that does not, and the per-cause attribution of all journeys
// must reconcile with their count.
func checkJourneys(r io.Reader) (string, error) {
	js, err := journey.Decode(r, true)
	if err != nil {
		return "", err
	}
	var a journey.Attribution
	for i := range js {
		a.Add(js[i].Cause)
	}
	if !a.Reconciles() {
		return "", fmt.Errorf("attribution does not reconcile: %d journeys, %d delivered, %d missed",
			a.Total, a.Delivered, a.Missed())
	}
	return fmt.Sprintf("%d journeys ok (%d delivered, %d missed); all spans valid", a.Total, a.Delivered, a.Missed()), nil
}

// checkMetrics validates a Prometheus text exposition, the format of
// metrics.prom and of a -serve plane's /metrics endpoint.
func checkMetrics(r io.Reader) (string, error) {
	n, err := rtmac.ValidatePrometheusText(r)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", fmt.Errorf("no samples")
	}
	return fmt.Sprintf("%d samples ok", n), nil
}

// checkHealthDoc validates an /api/health document.
func checkHealthDoc(r io.Reader) (string, error) {
	if err := rtmac.ValidateHealthDoc(r); err != nil {
		return "", err
	}
	return "health document ok", nil
}

// checkPerfetto validates a trace_event JSON document, guarding that an
// exported trace loads in a viewer.
func checkPerfetto(r io.Reader) (string, error) {
	n, err := rtmac.ValidatePerfettoTrace(r)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d trace events ok", n), nil
}
