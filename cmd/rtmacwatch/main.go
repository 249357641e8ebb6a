// Command rtmacwatch audits an rtmacsim telemetry event stream for SLO
// conformance. It runs the same streaming detectors the in-process watch
// plane runs (-watch): the multi-window deadline-miss burn rate, the
// delivery-ratio CUSUM change-point, the debt-drift regression, and the
// expired-backlog spike detector — so yesterday's recording is audited with
// exactly the code that would have watched the live run.
//
// Two input modes:
//
//	rtmacwatch -q 0.772,0.772 events.jsonl          replay a recorded stream
//	rtmacwatch -scenario s.json -tail URL           tail a live SSE feed
//
// where URL is a running simulator's /events endpoint. SLO targets come
// from exactly one of -q (explicit per-link rates), -slo (a `feascheck -json`
// document), or -scenario (a scenario file; its slo section wins, otherwise
// the feasibility-derived requirement vector).
//
// Exit codes are unified with the other tools: 0 means the stream conformed
// (no alerts), 1 means at least one alert fired, 2 means usage or I/O error.
// -check suppresses the per-alert lines for CI use; -alerts FILE additionally
// persists every transition as JSON Lines.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"rtmac"
	"rtmac/internal/telemetry"
	"rtmac/internal/watch"
	"rtmac/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtmacwatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		qFlag     = fs.String("q", "", "comma-separated per-link SLO targets (delivered packets/interval)")
		sloPath   = fs.String("slo", "", "feascheck -json document carrying the requirement vector")
		scenPath  = fs.String("scenario", "", "scenario JSON; its slo section or requirement vector sets the targets")
		tailURL   = fs.String("tail", "", "tail a live SSE event stream at this URL instead of replaying a file")
		budget    = fs.Float64("budget", 0, "deadline-miss budget fraction (default 0.1; -scenario slo section may override)")
		check     = fs.Bool("check", false, "summary verdict only, no per-alert lines (CI mode)")
		alertsOut = fs.String("alerts", "", "write alert transitions as JSON Lines to this file")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: rtmacwatch [flags] events.jsonl")
		fmt.Fprintln(stderr, "       rtmacwatch [flags] -tail http://host:port/events")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	budgetSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "budget" {
			budgetSet = true
		}
	})

	targets, cfgBudget, err := resolveTargets(*qFlag, *sloPath, *scenPath)
	if err != nil {
		fmt.Fprintln(stderr, "rtmacwatch:", err)
		return 2
	}
	if !budgetSet {
		*budget = cfgBudget
	}

	eng, err := watch.New(watch.Config{
		Links:    len(targets),
		Required: targets,
		Budget:   *budget,
		Output:   alertPrinter{out: stdout, quiet: *check},
	})
	if err != nil {
		fmt.Fprintln(stderr, "rtmacwatch:", err)
		return 2
	}

	var events int64
	switch {
	case *tailURL != "" && fs.NArg() > 0:
		fmt.Fprintln(stderr, "rtmacwatch: -tail and a replay file are mutually exclusive")
		return 2
	case *tailURL != "":
		events, err = tailSSE(ctx, *tailURL, eng)
	case fs.NArg() == 1:
		events, err = replayFile(fs.Arg(0), eng)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "rtmacwatch:", err)
		return 2
	}

	if *alertsOut != "" {
		if err := writeAlerts(*alertsOut, eng); err != nil {
			fmt.Fprintln(stderr, "rtmacwatch:", err)
			return 2
		}
	}

	fmt.Fprintf(stdout, "rtmacwatch: %d events, %d intervals, %d alerts (%d still firing)\n",
		events, eng.Intervals(), eng.Count(), eng.FiringNow())
	if by := eng.ByDetector(); len(by) > 0 {
		names := make([]string, 0, len(by))
		for d := range by {
			names = append(names, d)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, d := range names {
			parts[i] = fmt.Sprintf("%s=%d", d, by[d])
		}
		fmt.Fprintf(stdout, "rtmacwatch: by detector: %s\n", strings.Join(parts, " "))
	}
	if eng.Count() > 0 {
		return 1
	}
	return 0
}

// resolveTargets produces the per-link SLO target vector from exactly one of
// the three sources, plus the budget a scenario's slo section declares (0
// when the source carries none).
func resolveTargets(qFlag, sloPath, scenPath string) ([]float64, float64, error) {
	set := 0
	for _, s := range []string{qFlag, sloPath, scenPath} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, 0, fmt.Errorf("need exactly one of -q, -slo, -scenario (got %d)", set)
	}
	switch {
	case qFlag != "":
		parts := strings.Split(qFlag, ",")
		targets := make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, 0, fmt.Errorf("-q entry %d: %w", i, err)
			}
			targets[i] = v
		}
		return targets, 0, nil
	case sloPath != "":
		targets, err := targetsFromSLODoc(sloPath)
		return targets, 0, err
	default:
		return targetsFromScenario(scenPath)
	}
}

// sloDoc is the slice of `feascheck -json` the watcher needs: the per-link
// requirement vector.
type sloDoc struct {
	PerLink []rtmac.FeasibilityLink `json:"per_link"`
}

func targetsFromSLODoc(path string) ([]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc sloDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.PerLink) == 0 {
		return nil, fmt.Errorf("%s: no per_link requirement vector (is this a feascheck -json document?)", path)
	}
	targets := make([]float64, len(doc.PerLink))
	for _, pl := range doc.PerLink {
		if pl.Link < 0 || pl.Link >= len(targets) {
			return nil, fmt.Errorf("%s: per_link entry for link %d outside 0..%d", path, pl.Link, len(targets)-1)
		}
		targets[pl.Link] = pl.Required
	}
	return targets, nil
}

func targetsFromScenario(path string) ([]float64, float64, error) {
	cfg, _, _, err := scenario.LoadFile(path)
	if err != nil {
		return nil, 0, err
	}
	budget := 0.0
	if cfg.SLO != nil {
		budget = cfg.SLO.Budget
		if len(cfg.SLO.Targets) > 0 {
			return append([]float64(nil), cfg.SLO.Targets...), budget, nil
		}
	}
	targets, err := rtmac.RequirementVector(cfg)
	if err != nil {
		return nil, 0, err
	}
	return targets, budget, nil
}

// replayFile streams a recorded JSONL event stream through the engine.
func replayFile(path string, eng *watch.Engine) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return watch.ReplayJSONL(bufio.NewReader(f), eng)
}

// tailSSE subscribes to a live /events SSE feed and feeds every event to
// the engine until the server closes the stream or the context is cancelled
// (Ctrl-C) — either way the audit so far is summarized normally.
func tailSSE(ctx context.Context, url string, eng *watch.Engine) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, nil
		}
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var n int64
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue // SSE comments (keepalives) and blank separators
		}
		var ev telemetry.Event
		if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
			return n, fmt.Errorf("event %d: %w", n, err)
		}
		eng.Emit(ev)
		n++
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return n, err
	}
	return n, nil
}

func writeAlerts(path string, eng *watch.Engine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := watch.WriteAlertsJSONL(f, eng.Alerts()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// alertPrinter is the engine's output sink: it renders alert transitions as
// they happen, which is what makes -tail a live pager. Non-alert events (the
// stream itself) pass through silently.
type alertPrinter struct {
	out   io.Writer
	quiet bool
}

func (p alertPrinter) Emit(ev telemetry.Event) {
	if p.quiet || ev.Kind != telemetry.EventAlert {
		return
	}
	state := watch.StateResolved
	if ev.Value("state") == 1 {
		state = watch.StateFiring
	}
	fmt.Fprintf(p.out, "k=%d link=%d %s %s: %s\n", ev.K, ev.Link, ev.Check, state, ev.Msg)
}
