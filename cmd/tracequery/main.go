// Command tracequery filters, aggregates and pretty-prints packet-journey
// streams recorded by `rtmacsim -record` (or Simulation.EnableJourneys):
// per-cause deadline-miss attribution tables, per-link breakdowns, delivery
// delay percentiles, and human-readable journey listings.
//
// Usage:
//
//	tracequery journeys.jsonl              # attribution summary + delay percentiles
//	tracequery -by-link journeys.jsonl     # per-link attribution table
//	tracequery -cause lost-to-collision -print 5 journeys.jsonl
//	tracequery -link 3 journeys.jsonl      # one link only
//	tracequery - < run/journeys.jsonl      # read stdin
//
// `rtmacsim -check` validates a recorded journeys.jsonl.
package main

import (
	"fmt"
	"os"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracequery:", err)
	}
	os.Exit(code)
}
