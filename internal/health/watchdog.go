package health

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"rtmac/internal/mac"
	"rtmac/internal/perm"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Stall causes, in the numeric encoding the "stall" event's cause field uses.
const (
	CauseUser  = 0 // no runtime activity explains the overrun: simulation code
	CauseGC    = 1 // a GC stop-the-world pause overlapped the interval window
	CauseSched = 2 // goroutine scheduling delay dominated the window
)

// WatchdogConfig parameterizes a Watchdog.
type WatchdogConfig struct {
	// Budget is the wall-clock allowance per simulated interval. Zero or
	// negative disables overrun detection (the watchdog still counts
	// intervals and tracks the worst observed duration).
	Budget time.Duration
	// Sink, when set, receives one "stall" event per overrun.
	Sink telemetry.Sink
	// Registry, when set, receives rtmac_watchdog_* counters and gauges.
	Registry *telemetry.Registry
}

// Watchdog measures wall-clock time per simulated interval against a budget.
// It is a mac.Probe: its BeginInterval and EndInterval records bracket each
// interval on the simulation goroutine. The bracket spans the interval's
// records from the watchdog's begin to its end: the protocol's scheduling
// and channel activity, the ledger update and the probes listed before the
// watchdog at the close, but not arrival sampling, which precedes the
// begin record, nor the network's interval check, which follows the close.
// The in-budget path is two monotonic clock reads plus a handful of atomic
// stores and allocates nothing. Only an overrun takes the slow
// path: a runtime/metrics read to decide whether a GC pause or scheduler
// delay overlapped the window, a cause tally, and a "stall" event.
//
// Overrun attribution is windowed between consecutive overruns (the baseline
// advances each time), so the GC/sched deltas name runtime activity since
// the last stall — a deliberate approximation at histogram resolution, not
// an exact overlap proof.
type Watchdog struct {
	mac.NopProbe
	budget int64 // ns; <=0 disables overrun detection
	sink   telemetry.Sink

	begun   atomic.Bool // an interval is open (Begin seen, End pending)
	startNS time.Time   // interval start; sim-goroutine only

	intervals  atomic.Int64
	overruns   atomic.Int64
	maxElapsed atomic.Int64
	maxOverrun atomic.Int64
	lastOver   atomic.Int64
	stallsGC   atomic.Int64
	stallsSch  atomic.Int64
	stallsUser atomic.Int64

	cIntervals *telemetry.Counter
	cOverruns  *telemetry.Counter
	gMaxOver   *telemetry.Gauge

	// slow-path state, guarded by mu (overruns are rare; HTTP Status calls
	// never touch it).
	mu        sync.Mutex
	samples   []metrics.Sample
	havePause bool
	haveSched bool
	basePause pauseStats
	baseSched pauseStats
	payload   *telemetry.Payload // reused per emission; sinks must not retain
}

// WatchdogStatus is the watchdog's live state for /api/health.
type WatchdogStatus struct {
	BudgetNS      int64 `json:"budget_ns"`
	Intervals     int64 `json:"intervals"`
	Overruns      int64 `json:"overruns"`
	MaxElapsedNS  int64 `json:"max_elapsed_ns"`
	MaxOverrunNS  int64 `json:"max_overrun_ns"`
	LastOverrunNS int64 `json:"last_overrun_ns"`
	StallsGC      int64 `json:"stalls_gc"`
	StallsSched   int64 `json:"stalls_sched"`
	StallsUser    int64 `json:"stalls_user"`
}

// NewWatchdog builds a watchdog and takes its first attribution baseline.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		budget:  cfg.Budget.Nanoseconds(),
		sink:    cfg.Sink,
		payload: telemetry.NewPayload(telemetry.StallSchema),
	}
	avail := make(map[string]bool)
	for _, d := range metrics.All() {
		avail[d.Name] = true
	}
	if avail[mGCPauses] {
		w.havePause = true
		w.samples = append(w.samples, metrics.Sample{Name: mGCPauses})
	}
	if avail[mSchedLat] {
		w.haveSched = true
		w.samples = append(w.samples, metrics.Sample{Name: mSchedLat})
	}
	w.readBaseline()
	if cfg.Registry != nil {
		r := cfg.Registry
		w.cIntervals = r.Counter("rtmac_watchdog_intervals_total", "Intervals bracketed by the slot-budget watchdog.")
		w.cOverruns = r.Counter("rtmac_watchdog_overruns_total", "Intervals whose wall-clock time exceeded the slot budget.")
		w.gMaxOver = r.Gauge("rtmac_watchdog_max_overrun_seconds", "Worst slot-budget overrun observed.")
	}
	return w
}

// readBaseline snapshots the pause/sched histograms; deltas against it
// attribute the next overrun. Caller must hold mu (or be the constructor).
func (w *Watchdog) readBaseline() {
	if len(w.samples) == 0 {
		return
	}
	metrics.Read(w.samples)
	i := 0
	if w.havePause {
		w.basePause = histStats(w.samples[i].Value.Float64Histogram())
		i++
	}
	if w.haveSched {
		w.baseSched = histStats(w.samples[i].Value.Float64Histogram())
	}
}

// BeginInterval marks the wall-clock start of a simulated interval. Must be
// called from the simulation goroutine.
func (w *Watchdog) BeginInterval(int64, sim.Time, sim.Time, []int, perm.Permutation) {
	w.startNS = time.Now()
	w.begun.Store(true)
}

// EndInterval closes the interval opened by BeginInterval and, when the
// elapsed wall-clock time exceeds the budget, attributes and reports the
// overrun. k and at stamp any emitted stall event with simulated time.
func (w *Watchdog) EndInterval(k int64, at sim.Time, _, _, _ int, _ perm.Permutation) {
	if !w.begun.Load() {
		return
	}
	w.begun.Store(false)
	elapsed := int64(time.Since(w.startNS))
	w.intervals.Add(1)
	if w.cIntervals != nil {
		w.cIntervals.Inc()
	}
	if elapsed > w.maxElapsed.Load() {
		w.maxElapsed.Store(elapsed)
	}
	if w.budget <= 0 || elapsed <= w.budget {
		return
	}
	w.overrun(k, at, elapsed)
}

// overrun is the slow path: attribute and report one budget overrun.
func (w *Watchdog) overrun(k int64, at sim.Time, elapsed int64) {
	over := elapsed - w.budget
	w.overruns.Add(1)
	w.lastOver.Store(over)
	if over > w.maxOverrun.Load() {
		w.maxOverrun.Store(over)
	}
	if w.cOverruns != nil {
		w.cOverruns.Inc()
		w.gMaxOver.Set(float64(w.maxOverrun.Load()) / float64(time.Second))
	}

	w.mu.Lock()
	var gcPauseNS, schedWorstNS, schedP99NS int64
	var gcPauses uint64
	if len(w.samples) > 0 {
		metrics.Read(w.samples)
		i := 0
		if w.havePause {
			cur := histStats(w.samples[i].Value.Float64Histogram())
			gcPauses = cur.count - w.basePause.count
			gcPauseNS = secToNS(cur.totalSec - w.basePause.totalSec)
			w.basePause = cur
			i++
		}
		if w.haveSched {
			cur := histStats(w.samples[i].Value.Float64Histogram())
			schedP99NS = secToNS(cur.p99Sec)
			if cur.count > w.baseSched.count && cur.maxSec >= w.baseSched.maxSec {
				schedWorstNS = secToNS(cur.maxSec)
			}
			w.baseSched = cur
		}
	}

	cause := CauseUser
	switch {
	case gcPauses > 0 && gcPauseNS >= over/2:
		cause = CauseGC
	case schedWorstNS >= over/2:
		cause = CauseSched
	}
	switch cause {
	case CauseGC:
		w.stallsGC.Add(1)
	case CauseSched:
		w.stallsSch.Add(1)
	default:
		w.stallsUser.Add(1)
	}

	if w.sink != nil {
		v := w.payload.Values
		v[telemetry.StallBudget] = float64(w.budget)
		v[telemetry.StallElapsed] = float64(elapsed)
		v[telemetry.StallOverrun] = float64(over)
		v[telemetry.StallGCPause] = float64(gcPauseNS)
		v[telemetry.StallGCPauses] = float64(gcPauses)
		v[telemetry.StallSchedP99] = float64(schedP99NS)
		v[telemetry.StallCause] = float64(cause)
		w.sink.Emit(telemetry.Event{K: k, At: at, Link: -1, Kind: telemetry.EventStall, Payload: w.payload})
	}
	w.mu.Unlock()
}

// Status returns the watchdog's live counters.
func (w *Watchdog) Status() WatchdogStatus {
	return WatchdogStatus{
		BudgetNS:      w.budget,
		Intervals:     w.intervals.Load(),
		Overruns:      w.overruns.Load(),
		MaxElapsedNS:  w.maxElapsed.Load(),
		MaxOverrunNS:  w.maxOverrun.Load(),
		LastOverrunNS: w.lastOver.Load(),
		StallsGC:      w.stallsGC.Load(),
		StallsSched:   w.stallsSch.Load(),
		StallsUser:    w.stallsUser.Load(),
	}
}

// MergeInto stamps the watchdog's verdict onto a run health summary.
func (w *Watchdog) MergeInto(s *telemetry.HealthSummary) {
	s.WatchdogBudgetNS = w.budget
	s.WatchdogIntervals = w.intervals.Load()
	s.Overruns = w.overruns.Load()
	s.MaxOverrunNS = w.maxOverrun.Load()
	s.StallsGC = w.stallsGC.Load()
	s.StallsSched = w.stallsSch.Load()
	s.StallsUser = w.stallsUser.Load()
}
