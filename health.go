package rtmac

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"rtmac/internal/health"
	"rtmac/internal/telemetry"
)

// HealthConfig configures Simulation.EnableHealth. The runtime collector
// samples runtime/metrics every 250 ms; the profile ring, when enabled,
// captures a 1 s CPU window and a heap snapshot every 15 s and keeps the
// newest 8 profiles of each type.
type HealthConfig struct {
	// SlotBudget is the slot-budget watchdog's wall-clock allowance per
	// simulated interval. Zero selects the default — one simulated interval's
	// duration in real time (the live-wire criterion: can this process keep
	// up with its own clock?). Negative disables the watchdog entirely.
	SlotBudget time.Duration
	// ProfileDir, when non-empty, enables the continuous profile ring in that
	// directory.
	ProfileDir string
}

// Health is the runtime health plane attached to a simulation: a
// runtime/metrics collector, a slot-budget watchdog on the interval loop,
// and (optionally) a continuous profile ring. Construct with EnableHealth,
// stop with Stop before reading the final Summary.
//
// The plane observes the host runtime, never the simulation: a fixed-seed
// run produces byte-identical results, CSVs and event streams with or
// without it — except for "stall" events, which report wall-clock truth and
// are inherently non-deterministic.
type Health struct {
	col  *health.Collector
	dog  *health.Watchdog
	ring *health.ProfileRing
}

// EnableHealth attaches the runtime health plane. Call before Run; call
// Stop when the run completes. Collector gauges land in the simulation's
// telemetry registry (rtmac_health_*, rtmac_watchdog_*); watchdog stall
// events join every attached event consumer (streams, flight recorder, SSE);
// Manifest picks up the health summary automatically.
func (s *Simulation) EnableHealth(cfg HealthConfig) (*Health, error) {
	if s.health != nil {
		return nil, fmt.Errorf("rtmac: health plane already enabled")
	}
	h := &Health{}
	h.col = health.NewCollector(health.CollectorConfig{Registry: s.nw.Telemetry()})
	if cfg.SlotBudget >= 0 {
		budget := cfg.SlotBudget
		if budget == 0 {
			budget = time.Duration(s.profileInterval) * time.Microsecond
		}
		h.dog = health.NewWatchdog(health.WatchdogConfig{
			Budget:   budget,
			Sink:     simFanout{s: s},
			Registry: s.nw.Telemetry(),
		})
		s.nw.AddProbe(h.dog)
	}
	if cfg.ProfileDir != "" {
		ring, err := health.NewProfileRing(health.RingConfig{
			Dir: cfg.ProfileDir,
			Labels: map[string]string{
				"seed":     strconv.FormatUint(s.manifest.Seed, 10),
				"protocol": s.prot.Name(),
			},
		})
		if err != nil {
			return nil, fmt.Errorf("rtmac: %w", err)
		}
		h.ring = ring
		ring.Start()
	}
	h.col.Start()
	s.health = h
	return h, nil
}

// Stop halts the collector's sampling loop (after one final round, so the
// summary reflects the run's end state) and the profile ring. Idempotent.
func (h *Health) Stop() {
	h.col.Stop()
	if h.ring != nil {
		h.ring.Stop()
	}
}

// Summary condenses the run's health observations for the manifest: peak
// heap, GC pause aggregates, and the watchdog's slot-budget verdict.
func (h *Health) Summary() telemetry.HealthSummary {
	sum := h.col.Summary()
	if h.dog != nil {
		h.dog.MergeInto(&sum)
	}
	return sum
}

// Overruns returns how many intervals overran the slot budget so far (zero
// when the watchdog is disabled).
func (h *Health) Overruns() int64 {
	if h.dog == nil {
		return 0
	}
	return h.dog.Status().Overruns
}

// doc builds the /api/health document for the obs plane.
func (h *Health) doc() health.Doc {
	return health.BuildDoc(h.col, h.dog, h.ring)
}

// WriteJSON writes the /api/health document of this plane as indented
// JSON; ValidateHealthDoc reads it back.
func (h *Health) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h.doc())
}

// healthDoc is the /api/health provider: a disabled-but-identified document
// when no health plane is attached, the live one otherwise. Reading s.health
// from HTTP handlers is safe — EnableHealth is a pre-Run setup call, like
// every other attach.
func (s *Simulation) healthDoc() any {
	if s.health == nil {
		return health.BuildDoc(nil, nil, nil)
	}
	return s.health.doc()
}

// ValidateHealthDoc parses an /api/health JSON document and checks its
// structural invariants. `rtmacsim -check` uses it to guard the endpoint
// and the health.json a record directory holds.
func ValidateHealthDoc(r io.Reader) error {
	_, err := health.ValidateDoc(r)
	return err
}
