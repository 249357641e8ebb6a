// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate that replaces ns-3 in this reproduction: it
// offers a microsecond-resolution virtual clock, a cancellable event queue
// with stable FIFO ordering for simultaneous events, and named deterministic
// random-number streams derived from a single seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured in integer microseconds since
// the start of the simulation. Microsecond resolution is sufficient for every
// quantity in the reproduced paper: 802.11a backoff slots are 9 µs, packet
// airtimes are 70–330 µs, and packet deadlines are 2–20 ms.
type Time int64

// Duration aliases Time for readability when a value denotes a span rather
// than an instant. Arithmetic between the two is deliberately unrestricted.
type Duration = Time

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Never is a sentinel instant later than any reachable simulation time.
const Never Time = 1<<63 - 1

// String renders the time in the most natural unit.
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t%Second == 0 && t != 0:
		return fmt.Sprintf("%ds", int64(t/Second))
	case t%Millisecond == 0 && t != 0:
		return fmt.Sprintf("%dms", int64(t/Millisecond))
	default:
		return fmt.Sprintf("%dus", int64(t))
	}
}

// Std converts a simulated duration into a time.Duration for interoperation
// with the standard library (e.g. reporting).
func (t Time) Std() time.Duration {
	return time.Duration(t) * time.Microsecond
}
