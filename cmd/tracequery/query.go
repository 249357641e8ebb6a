package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"rtmac/internal/journey"
	"rtmac/internal/telemetry"
)

// run is the testable entry point: parses args, executes the query, writes
// to stdout, and returns the process exit code.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("tracequery", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		check  = fs.Bool("check", false, "validate every journey and exit 1 on the first malformed span")
		link   = fs.Int("link", -1, "restrict to one link (-1 = all)")
		cause  = fs.String("cause", "", "restrict to one terminal cause (e.g. lost-to-collision)")
		byLink = fs.Bool("by-link", false, "print a per-link attribution table")
		n      = fs.Int("print", 0, "pretty-print the first n matching journeys")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed the error
	}
	if *cause != "" && !journey.ValidCause(*cause) {
		return 2, fmt.Errorf("unknown cause %q (one of %s)", *cause, strings.Join(journey.Causes(), ", "))
	}
	in, name, err := openInput(fs.Args())
	if err != nil {
		return 2, err
	}
	defer in.Close()

	raw, err := io.ReadAll(in)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", name, err)
	}
	// Journey i sits on line base+i+1: a valid leading schema header holds
	// no journey, while a mismatched one is the line Decode stops on.
	base := 0
	first, _, _ := bytes.Cut(raw, []byte("\n"))
	if h, ok := telemetry.ParseHeader(first); ok &&
		h.Check(telemetry.JourneyStreamSchema, telemetry.JourneyStreamVersion) == nil {
		base = 1
	}
	js, err := journey.Decode(bytes.NewReader(raw))
	if err != nil {
		return 1, fmt.Errorf("%s: line %d: %w", name, base+len(js)+1, err)
	}
	if *check {
		for i := range js {
			if err := js[i].Validate(); err != nil {
				return 1, fmt.Errorf("%s: line %d: %w", name, base+i+1, err)
			}
		}
		fmt.Fprintf(stdout, "ok: %d journeys, all spans valid\n", len(js))
		return 0, nil
	}

	js = filter(js, *link, *cause)
	if *byLink {
		writeByLink(stdout, js)
	} else {
		writeSummary(stdout, js)
	}
	if *n > 0 {
		limit := *n
		if limit > len(js) {
			limit = len(js)
		}
		fmt.Fprintln(stdout)
		for i := 0; i < limit; i++ {
			writeJourney(stdout, &js[i])
		}
	}
	return 0, nil
}

// openInput resolves the positional argument to a reader: a path, "-" or no
// argument for stdin.
func openInput(args []string) (io.ReadCloser, string, error) {
	switch {
	case len(args) > 1:
		return nil, "", fmt.Errorf("at most one input file, got %d", len(args))
	case len(args) == 0 || args[0] == "-":
		return io.NopCloser(os.Stdin), "stdin", nil
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, "", err
	}
	return f, args[0], nil
}

func filter(js []journey.Journey, link int, cause string) []journey.Journey {
	if link < 0 && cause == "" {
		return js
	}
	out := js[:0]
	for _, j := range js {
		if link >= 0 && j.Link != link {
			continue
		}
		if cause != "" && j.Cause != cause {
			continue
		}
		out = append(out, j)
	}
	return out
}

// writeSummary prints the attribution table and delivery-delay percentiles.
func writeSummary(w io.Writer, js []journey.Journey) {
	var agg journey.Attribution
	var delays []int64
	for i := range js {
		agg = tally(agg, &js[i])
		if js[i].Cause == journey.CauseDelivered {
			delays = append(delays, int64(js[i].Delay))
		}
	}
	fmt.Fprintf(w, "journeys: %d\n", agg.Total)
	for _, c := range journey.Causes() {
		fmt.Fprintf(w, "  %-22s %8d  %s\n", c, agg.Count(c), share(agg.Count(c), agg.Total))
	}
	if len(delays) > 0 {
		sort.Slice(delays, func(i, k int) bool { return delays[i] < delays[k] })
		fmt.Fprintf(w, "delivery delay (us): p50=%d p90=%d p95=%d p99=%d max=%d\n",
			pct(delays, 50), pct(delays, 90), pct(delays, 95), pct(delays, 99), delays[len(delays)-1])
	}
}

// writeByLink prints one attribution row per link, plus a total row.
func writeByLink(w io.Writer, js []journey.Journey) {
	perLink := map[int]journey.Attribution{}
	maxLink := -1
	for i := range js {
		l := js[i].Link
		perLink[l] = tally(perLink[l], &js[i])
		if l > maxLink {
			maxLink = l
		}
	}
	fmt.Fprintf(w, "%-6s %8s %10s %8s %8s %8s %8s\n",
		"link", "total", "delivered", "expired", "channel", "collide", "starved")
	var total journey.Attribution
	for l := 0; l <= maxLink; l++ {
		a := perLink[l]
		total.Merge(a)
		fmt.Fprintf(w, "%-6d %8d %10d %8d %8d %8d %8d\n",
			l, a.Total, a.Delivered, a.ExpiredInQueue, a.LostToChannel, a.LostToCollision, a.NeverWon)
	}
	fmt.Fprintf(w, "%-6s %8d %10d %8d %8d %8d %8d\n",
		"all", total.Total, total.Delivered, total.ExpiredInQueue, total.LostToChannel,
		total.LostToCollision, total.NeverWon)
}

// writeJourney pretty-prints one journey.
func writeJourney(w io.Writer, j *journey.Journey) {
	fmt.Fprintf(w, "seq %d  k=%d link=%d idx=%d", j.Seq, j.K, j.Link, j.Idx)
	if j.Prio > 0 {
		fmt.Fprintf(w, " prio=%d", j.Prio)
	}
	fmt.Fprintf(w, "  %s", j.Cause)
	if j.Cause == journey.CauseDelivered {
		fmt.Fprintf(w, " delay=%dus", int64(j.Delay))
	}
	fmt.Fprintln(w)
	if len(j.Rounds) > 0 {
		fmt.Fprint(w, "  rounds:")
		for _, r := range j.Rounds {
			fmt.Fprintf(w, " [b=%d", r.Backoff)
			switch r.Sense {
			case 0:
				fmt.Fprint(w, " idle")
			case 1:
				fmt.Fprint(w, " busy")
			}
			if r.Started {
				fmt.Fprint(w, " tx")
			} else if r.Fired {
				fmt.Fprint(w, " fired")
			}
			fmt.Fprint(w, "]")
		}
		fmt.Fprintln(w)
	}
	if len(j.Attempts) > 0 {
		fmt.Fprint(w, "  attempts:")
		for _, a := range j.Attempts {
			fmt.Fprintf(w, " [%d..%d %s]", int64(a.Start), int64(a.End), a.Outcome)
		}
		fmt.Fprintln(w)
	}
}

// tally folds one journey into an attribution (value-typed helper for maps).
func tally(a journey.Attribution, j *journey.Journey) journey.Attribution {
	var one journey.Attribution
	one.Total = 1
	switch j.Cause {
	case journey.CauseDelivered:
		one.Delivered = 1
	case journey.CauseExpiredInQueue:
		one.ExpiredInQueue = 1
	case journey.CauseLostToChannel:
		one.LostToChannel = 1
	case journey.CauseLostToCollision:
		one.LostToCollision = 1
	case journey.CauseNeverWonContention:
		one.NeverWon = 1
	}
	a.Merge(one)
	return a
}

// pct returns the p-th percentile of sorted values by the nearest-rank rule.
func pct(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func share(n, total int64) string {
	if total == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}
