// Command ledgerctl inspects and manipulates a run ledger — the durable,
// content-addressed store of run records that `figures -ledger` and
// `rtmacsim -ledger` append to (see internal/ledger and
// docs/OBSERVABILITY.md).
//
// Usage:
//
//	ledgerctl [-dir DIR] list
//	ledgerctl [-dir DIR] show REF
//	ledgerctl [-dir DIR] merge REF REF...
//	ledgerctl [-dir DIR] diff OLD NEW
//	ledgerctl [-dir DIR] equal A B
//
// REF is a full record ID, a unique prefix (≥4 hex chars), or "latest"
// (optionally "latest~N"). In diff, OLD and NEW may also be comma-separated
// reference sets; each set is merged in memory before comparing, so
// `diff a1,a2 b1,b2` compares two-seed aggregates directly.
//
// merge appends the combined record to the ledger and prints its ID. Because
// records carry replication-multiset partials, the merge is exactly the
// record a single process running all the seeds would have produced.
//
// equal exits non-zero unless the two records (or sets) carry byte-identical
// point statistics — the merge-fidelity assertion.
//
// diff is the regression sentinel: it compares every matching point with
// Welch's t-test at the chosen confidence (-confidence 0.90, 0.95 or 0.99;
// any other level is a usage error), falling back to a relative-delta
// threshold when either side has fewer than two replications, checks delay
// quantiles for growth, and exits non-zero when any point regressed
// significantly in its "worse" direction. ledgerctl compares statistics
// only; to find the first divergent event of two recorded runs, follow it
// with rundiff on their events.jsonl files:
//
//	ledgerctl diff OLD NEW; rundiff -check-equal A/events.jsonl B/events.jsonl
//
// Exit codes: 0 success (no difference found), 1 comparison found a
// difference (diff regression, equal inequality), 2 usage or I/O error
// (including a record whose bytes do not match its content address).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"rtmac/internal/ledger"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errDiffer marks a comparison that found a difference (exit 1), as opposed
// to a usage or I/O failure (exit 2).
var errDiffer = errors.New("difference found")

// run is the testable entry point returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledgerctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir        = fs.String("dir", ".ledger", "ledger directory")
		confidence = fs.Float64("confidence", 0.95, "diff: Welch test confidence level (0.90, 0.95 or 0.99)")
		rel        = fs.Float64("rel", 0.10, "diff: relative-delta threshold used when a side has <2 replications")
		quantRel   = fs.Float64("quantile-rel", 0.25, "diff: relative growth of delay p50/p95/p99 flagged as regression")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ledgerctl [-dir DIR] <list|show|merge|diff|equal> [args]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package already printed the error
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	cmd, args := fs.Arg(0), fs.Args()[1:]
	// Every subcommand reads the ledger, so a missing directory is an error
	// here rather than an empty ledger; only Append creates one.
	if info, err := os.Stat(*dir); err != nil || !info.IsDir() {
		fmt.Fprintf(stderr, "ledgerctl: no ledger directory %s\n", *dir)
		return 2
	}
	store, err := ledger.Open(*dir)
	if err == nil {
		switch cmd {
		case "list":
			err = runList(store, args, stdout)
		case "show":
			err = runShow(store, args, stdout)
		case "merge":
			err = runMerge(store, args, stdout)
		case "diff":
			err = runDiff(store, args, ledger.DiffOptions{
				Confidence:        *confidence,
				RelThreshold:      *rel,
				QuantileThreshold: *quantRel,
			}, stdout)
		case "equal":
			err = runEqual(store, args, stdout)
		default:
			fmt.Fprintf(stderr, "ledgerctl: unknown command %q\n", cmd)
			fs.Usage()
			return 2
		}
	}
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "ledgerctl:", err)
	if errors.Is(err, errDiffer) {
		return 1
	}
	return 2
}

func runList(store *ledger.Store, args []string, stdout io.Writer) error {
	if len(args) != 0 {
		return fmt.Errorf("list takes no arguments")
	}
	entries, err := store.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Fprintf(stdout, "ledger %s is empty\n", store.Dir())
		return nil
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tAPPENDED\tKIND\tTOOL\tSCENARIO\tCOMMIT\tSEEDS\tPOINTS")
	for _, e := range entries {
		commit := e.Commit
		if len(commit) > 12 {
			commit = commit[:12]
		}
		if e.Dirty {
			commit += "+dirty"
		}
		fmt.Fprintf(tw, "%.12s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\n",
			e.ID, e.Appended.Format("2006-01-02 15:04:05"), e.Kind, e.Tool,
			e.Scenario, commit, e.Seeds, e.Points)
	}
	return tw.Flush()
}

func runShow(store *ledger.Store, args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("show takes exactly one reference")
	}
	// Print the address the record is stored under, not the hash of its
	// re-encoding: the two differ for a record carrying a key this version
	// no longer writes (the retired "sketch").
	id, err := store.Resolve(args[0])
	if err != nil {
		return err
	}
	rec, err := store.Get(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "record   %s\n", id)
	fmt.Fprintf(stdout, "kind     %s\n", rec.Kind)
	if rec.Scenario != "" {
		fmt.Fprintf(stdout, "scenario %s\n", rec.Scenario)
	}
	if len(rec.Seeds) > 0 {
		seeds := make([]string, len(rec.Seeds))
		for i, s := range rec.Seeds {
			seeds[i] = fmt.Sprint(s)
		}
		fmt.Fprintf(stdout, "seeds    %s\n", strings.Join(seeds, " "))
	}
	if m := rec.Manifest; m != nil {
		fmt.Fprintf(stdout, "tool     %s\n", m.Tool)
		fmt.Fprintf(stdout, "go       %s\n", m.GoVersion)
		if m.VCSRevision != "" {
			dirty := ""
			if m.VCSModified {
				dirty = " (dirty)"
			}
			fmt.Fprintf(stdout, "commit   %s%s\n", m.VCSRevision, dirty)
		}
		if m.Hostname != "" {
			fmt.Fprintf(stdout, "host     %s (GOMAXPROCS %d)\n", m.Hostname, m.GoMaxProcs)
		}
		if !m.Started.IsZero() {
			fmt.Fprintf(stdout, "started  %s", m.Started.Format("2006-01-02 15:04:05 MST"))
			if m.Elapsed > 0 {
				fmt.Fprintf(stdout, "  elapsed %s", m.Elapsed.Round(1e6))
			}
			fmt.Fprintln(stdout)
		}
		if len(m.Config) > 0 {
			keys := make([]string, 0, len(m.Config))
			for k := range m.Config {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(stdout, "config   %s=%s\n", k, m.Config[k])
			}
		}
		if h := m.Health; h != nil {
			fmt.Fprintf(stdout, "health   peak heap %.1f MiB · peak %d goroutines · %d GC pauses (~%s total, max %s) over %d samples\n",
				float64(h.HeapLivePeakBytes)/(1<<20), h.GoroutinePeak, h.GCPauses,
				time.Duration(h.GCPauseTotalNS).Round(time.Microsecond),
				time.Duration(h.GCPauseMaxNS).Round(time.Microsecond), h.Samples)
			if h.WatchdogIntervals > 0 {
				verdict := fmt.Sprintf("health   slot budget %s: %d/%d overruns",
					time.Duration(h.WatchdogBudgetNS), h.Overruns, h.WatchdogIntervals)
				if h.Overruns > 0 {
					verdict += fmt.Sprintf(" · worst +%s (gc %d / sched %d / user %d)",
						time.Duration(h.MaxOverrunNS).Round(time.Microsecond),
						h.StallsGC, h.StallsSched, h.StallsUser)
				}
				fmt.Fprintln(stdout, verdict)
			}
		}
	}
	if len(rec.Merged) > 0 {
		fmt.Fprintf(stdout, "merged from %d records:\n", len(rec.Merged))
		for _, src := range rec.Merged {
			fmt.Fprintf(stdout, "  %s\n", src)
		}
	}
	fmt.Fprintln(stdout)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FIGURE\tSERIES\tX\tMETRIC\tN\tMEAN\t±CI95\tP50\tP95\tP99")
	for _, p := range rec.Points {
		d50, d95, d99 := "-", "-", "-"
		if p.Summary.DelayN > 0 {
			d50 = fmt.Sprintf("%.0f", p.Summary.DelayP50)
			d95 = fmt.Sprintf("%.0f", p.Summary.DelayP95)
			d99 = fmt.Sprintf("%.0f", p.Summary.DelayP99)
		}
		fmt.Fprintf(tw, "%s\t%s\t%g\t%s\t%d\t%.6g\t%.3g\t%s\t%s\t%s\n",
			p.Figure, p.Series, p.X, p.Metric, p.Summary.N, p.Summary.Mean,
			p.Summary.CIHalf, d50, d95, d99)
	}
	return tw.Flush()
}

func runMerge(store *ledger.Store, args []string, stdout io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("merge takes at least two references")
	}
	rec, err := loadSet(store, args)
	if err != nil {
		return err
	}
	id, err := store.Append(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "merged %d records into %s (%d points, %d seeds)\n",
		len(args), id, len(rec.Points), len(rec.Seeds))
	return nil
}

func runDiff(store *ledger.Store, args []string, opts ledger.DiffOptions, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("diff takes exactly two references (each may be a comma-separated set)")
	}
	oldRec, err := loadSet(store, strings.Split(args[0], ","))
	if err != nil {
		return fmt.Errorf("old %q: %w", args[0], err)
	}
	newRec, err := loadSet(store, strings.Split(args[1], ","))
	if err != nil {
		return fmt.Errorf("new %q: %w", args[1], err)
	}
	report, err := ledger.Diff(oldRec, newRec, opts)
	if err != nil {
		return err
	}
	report.WriteText(stdout)
	if report.HasRegression() {
		return fmt.Errorf("%d significant regressions: %w", report.Regressions, errDiffer)
	}
	return nil
}

// runEqual asserts two records (or comma-separated sets, merged in memory)
// carry byte-identical point statistics — the merge-fidelity check: per-seed
// records merged must equal the combined run exactly, not just within noise.
func runEqual(store *ledger.Store, args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("equal wants exactly two references (each may be a comma-separated set)")
	}
	a, err := loadSet(store, strings.Split(args[0], ","))
	if err != nil {
		return err
	}
	b, err := loadSet(store, strings.Split(args[1], ","))
	if err != nil {
		return err
	}
	if err := ledger.Equivalent(a, b); err != nil {
		return fmt.Errorf("records differ: %v: %w", err, errDiffer)
	}
	fmt.Fprintf(stdout, "records carry identical statistics (%d points)\n", len(a.Points))
	return nil
}

// loadSet resolves refs and, when there are several, merges them in memory —
// the diff-side shorthand that compares seed sets without a prior `merge`.
func loadSet(store *ledger.Store, refs []string) (*ledger.Record, error) {
	recs := make([]*ledger.Record, 0, len(refs))
	ids := make([]string, 0, len(refs))
	for _, ref := range refs {
		ref = strings.TrimSpace(ref)
		if ref == "" {
			continue
		}
		id, err := store.Resolve(ref)
		if err != nil {
			return nil, err
		}
		rec, err := store.Get(id)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		ids = append(ids, id)
	}
	switch len(recs) {
	case 0:
		return nil, fmt.Errorf("no references given")
	case 1:
		return recs[0], nil
	default:
		return ledger.Merge(recs, ids)
	}
}
