package monitor

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// The adversarial suite forges corrupted event streams — duplicate
// priorities, double swap draws, synthetic collisions, broken debt
// bookkeeping, airtime breaches — and asserts each checker fires exactly
// once, with the right payload, and stays silent on the clean prefix.

const (
	testLinks    = 4
	testInterval = sim.Time(1000)
)

func testConfig() Config {
	return Config{
		Links:         testLinks,
		Interval:      testInterval,
		CollisionFree: true,
		SwapPairs:     1,
	}
}

func prioEvent(k int64, prio ...int) telemetry.Event {
	fields := make(map[string]float64, len(prio))
	for link, p := range prio {
		fields[fmt.Sprintf("l%d", link)] = float64(p)
	}
	return telemetry.Event{
		K: k, At: sim.Time(k+1) * testInterval, Link: -1,
		Kind: telemetry.EventPriority, Payload: telemetry.PayloadOf(fields),
	}
}

func intervalEvent(k int64, served float64) telemetry.Event {
	return telemetry.Event{
		K: k, At: sim.Time(k+1) * testInterval, Link: -1,
		Kind:    telemetry.EventInterval,
		Payload: telemetry.PayloadOf(map[string]float64{"arrivals": 4, "served": served, "expired": 0}),
	}
}

func debtEvent(k int64, sum float64) telemetry.Event {
	return telemetry.Event{
		K: k, At: sim.Time(k+1) * testInterval, Link: -1,
		Kind:    telemetry.EventDebt,
		Payload: telemetry.PayloadOf(map[string]float64{"max": sum, "mean": sum / testLinks, "positive": 1}),
	}
}

func swapEvent(k int64, pos, down, up int, accepted bool) telemetry.Event {
	acc := 0.0
	if accepted {
		acc = 1
	}
	return telemetry.Event{
		K: k, At: sim.Time(k)*testInterval + 10, Link: -1,
		Kind: telemetry.EventSwap,
		Payload: telemetry.PayloadOf(map[string]float64{
			"pos": float64(pos), "down": float64(down), "up": float64(up), "accepted": acc,
		}),
	}
}

func txEvent(k int64, link int, end, dur sim.Time, outcome int) telemetry.Event {
	return telemetry.Event{
		K: k, At: end, Link: link, Kind: telemetry.EventTx,
		Payload: telemetry.PayloadOf(map[string]float64{"dur": float64(dur), "empty": 0, "outcome": float64(outcome)}),
	}
}

func runMonitor(t *testing.T, cfg Config, events []telemetry.Event) *Monitor {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		m.Emit(ev)
	}
	return m
}

// expectOne asserts exactly one violation, from the named check, with a
// message containing want.
func expectOne(t *testing.T, m *Monitor, check, want string) Violation {
	t.Helper()
	vs := m.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations %v, want exactly 1", len(vs), vs)
	}
	v := vs[0]
	if v.Check != check {
		t.Errorf("violation from check %q, want %q", v.Check, check)
	}
	if !strings.Contains(v.Msg, want) {
		t.Errorf("violation message %q does not mention %q", v.Msg, want)
	}
	return v
}

func TestCleanStreamNoViolations(t *testing.T) {
	events := []telemetry.Event{
		txEvent(0, 0, 300, 200, 0),
		txEvent(0, 1, 600, 200, 1),
		swapEvent(0, 2, 1, 2, true), // σ [1,2,3,4] -> [1,3,2,4]
		debtEvent(0, 1.0),
		intervalEvent(0, 3),
		prioEvent(0, 1, 3, 2, 4),
		txEvent(1, 2, 1300, 200, 0),
		swapEvent(1, 1, 0, 2, false),
		debtEvent(1, 2.0), // q = 4: 1 + 4 - 3 = 2
		intervalEvent(1, 3),
		prioEvent(1, 1, 3, 2, 4),
	}
	m := runMonitor(t, testConfig(), events)
	if n := m.Count(); n != 0 {
		t.Fatalf("clean stream produced %d violations: %v", n, m.Violations())
	}
	if m.Err() != nil {
		t.Fatalf("clean stream produced error %v", m.Err())
	}
}

func TestForgedDuplicatePriority(t *testing.T) {
	events := []telemetry.Event{
		intervalEvent(0, 3),
		prioEvent(0, 1, 2, 3, 4),
		intervalEvent(1, 3),
		prioEvent(1, 1, 2, 2, 4), // priority 2 assigned twice, 3 vanished
	}
	m := runMonitor(t, testConfig(), events)
	v := expectOne(t, m, "permutation_valid", "bijection")
	if v.K != 1 {
		t.Errorf("violation at interval %d, want 1", v.K)
	}
	if v.Fields["priority"] != 2 {
		t.Errorf("violation payload priority = %v, want 2", v.Fields["priority"])
	}
}

func TestPriorityOutOfRange(t *testing.T) {
	m := runMonitor(t, testConfig(), []telemetry.Event{
		prioEvent(0, 1, 2, 3, 7), // 7 outside {1..4}
	})
	v := expectOne(t, m, "permutation_valid", "outside")
	if v.Link != 3 {
		t.Errorf("violation names link %d, want 3", v.Link)
	}
}

func TestPriorityTeleportWithoutSwap(t *testing.T) {
	events := []telemetry.Event{
		prioEvent(0, 1, 2, 3, 4),
		prioEvent(1, 2, 1, 3, 4), // σ changed but no accepted swap recorded
	}
	m := runMonitor(t, testConfig(), events)
	expectOne(t, m, "permutation_valid", "without a committed swap")
}

func TestForgedDoubleSwapDraw(t *testing.T) {
	events := []telemetry.Event{
		swapEvent(0, 1, 0, 1, false),
		swapEvent(0, 3, 2, 3, false), // second draw in the same interval, pairs=1
		intervalEvent(0, 3),
	}
	m := runMonitor(t, testConfig(), events)
	v := expectOne(t, m, "single_adjacent_swap", "permits 1")
	if v.Fields["draws"] != 2 || v.Fields["allowed"] != 1 {
		t.Errorf("payload draws=%v allowed=%v, want 2 and 1", v.Fields["draws"], v.Fields["allowed"])
	}
}

func TestAdjacentPairsUnderRemark6(t *testing.T) {
	cfg := testConfig()
	cfg.SwapPairs = 2
	events := []telemetry.Event{
		swapEvent(0, 2, 1, 2, false),
		swapEvent(0, 3, 2, 3, false), // positions 2 and 3 share link at index 3
		intervalEvent(0, 3),
	}
	m := runMonitor(t, cfg, events)
	expectOne(t, m, "single_adjacent_swap", "non-adjacent")
}

func TestSwapPositionOutOfRange(t *testing.T) {
	m := runMonitor(t, testConfig(), []telemetry.Event{
		swapEvent(0, 9, 0, 1, false), // {1..3} is legal for N=4
	})
	expectOne(t, m, "single_adjacent_swap", "outside")
}

func TestSyntheticCollision(t *testing.T) {
	events := []telemetry.Event{
		txEvent(0, 0, 300, 200, 0),
		txEvent(0, 2, 600, 200, outcomeCollided),
	}
	m := runMonitor(t, testConfig(), events)
	v := expectOne(t, m, "collision_free", "collided under a collision-free protocol")
	if v.Link != 2 {
		t.Errorf("violation names link %d, want 2", v.Link)
	}
}

func TestCollisionsAllowedWhenNotCollisionFree(t *testing.T) {
	cfg := testConfig()
	cfg.CollisionFree = false
	m := runMonitor(t, cfg, []telemetry.Event{
		txEvent(0, 0, 300, 200, outcomeCollided),
		txEvent(0, 1, 300, 200, outcomeCollided),
	})
	if n := m.Count(); n != 0 {
		t.Fatalf("collision under a collision-prone protocol flagged: %v", m.Violations())
	}
}

func TestDebtBookkeepingMismatch(t *testing.T) {
	events := []telemetry.Event{
		debtEvent(0, 1.0), // with served=3: q inferred as 4
		intervalEvent(0, 3),
		debtEvent(1, 4.0), // Eq. 1 predicts 1 + 4 - 2 = 3, stream claims 4
		intervalEvent(1, 2),
	}
	m := runMonitor(t, testConfig(), events)
	v := expectOne(t, m, "debt_sane", "Eq. 1 predicts")
	if v.Fields["got"] != 4 || v.Fields["expected"] != 3 {
		t.Errorf("payload got=%v expected=%v, want 4 and 3", v.Fields["got"], v.Fields["expected"])
	}
}

func TestDebtReanchorsAfterGap(t *testing.T) {
	events := []telemetry.Event{
		debtEvent(0, 1.0),
		intervalEvent(0, 3), // q = 4
		// interval 1 missing from the stream (sampling); k=2 must not flag
		debtEvent(2, 9.0),
		intervalEvent(2, 1),
		// consecutive again: 9 + 4 - 2 = 11
		debtEvent(3, 11.0),
		intervalEvent(3, 2),
	}
	m := runMonitor(t, testConfig(), events)
	if n := m.Count(); n != 0 {
		t.Fatalf("gapped stream flagged: %v", m.Violations())
	}
}

func TestAirtimeBoundaryBreach(t *testing.T) {
	events := []telemetry.Event{
		txEvent(0, 1, 1100, 200, 0), // [900, 1100] crosses the k=0 deadline at 1000
		intervalEvent(0, 1),
	}
	m := runMonitor(t, testConfig(), events)
	v := expectOne(t, m, "airtime_conserved", "leaves interval")
	if v.Link != 1 {
		t.Errorf("violation names link %d, want 1", v.Link)
	}
}

func TestAirtimeOverlapWithoutCollision(t *testing.T) {
	cfg := testConfig()
	cfg.CollisionFree = false // isolate the airtime checker
	events := []telemetry.Event{
		txEvent(0, 0, 300, 200, 0), // [100, 300]
		txEvent(0, 1, 400, 200, 0), // [200, 400] overlaps, neither collided
		intervalEvent(0, 2),
	}
	m := runMonitor(t, cfg, events)
	expectOne(t, m, "airtime_conserved", "overlap")
}

func TestAirtimeContainedOverlap(t *testing.T) {
	cfg := testConfig()
	cfg.CollisionFree = false
	events := []telemetry.Event{
		txEvent(0, 0, 900, 800, 0), // [100, 900] long span
		txEvent(0, 1, 300, 100, 0), // [200, 300] contained in it
		txEvent(0, 2, 950, 30, 0),  // [920, 950] clean tail
		intervalEvent(0, 3),
	}
	m := runMonitor(t, cfg, events)
	expectOne(t, m, "airtime_conserved", "overlap")
}

// TestAirtimeInterleavedIntervals feeds tx events of two intervals
// alternately: each interval's overlapping pair is split by an event of the
// other, and interval 1's pair by interval 0's settlement. Both overlaps
// must be reported, once each.
func TestAirtimeInterleavedIntervals(t *testing.T) {
	cfg := testConfig()
	cfg.CollisionFree = false
	events := []telemetry.Event{
		txEvent(0, 0, 300, 200, 0),  // [100, 300]
		txEvent(1, 2, 1300, 200, 0), // [1100, 1300]
		txEvent(0, 1, 400, 200, 0),  // [200, 400] overlaps link 0's span
		intervalEvent(0, 2),
		txEvent(1, 3, 1400, 200, 0), // [1200, 1400] overlaps link 2's span
		intervalEvent(1, 2),
	}
	m := runMonitor(t, cfg, events)
	var ks []int64
	for _, v := range m.Violations() {
		if v.Check != "airtime_conserved" || !strings.Contains(v.Msg, "overlap") {
			t.Errorf("unexpected violation: %+v", v)
		}
		ks = append(ks, v.K)
	}
	if !slices.Equal(ks, []int64{0, 1}) {
		t.Errorf("overlaps reported for intervals %v, want [0 1]", ks)
	}
}

func TestCollidedOverlapIsClean(t *testing.T) {
	cfg := testConfig()
	cfg.CollisionFree = false
	events := []telemetry.Event{
		txEvent(0, 0, 300, 200, outcomeCollided),
		txEvent(0, 1, 400, 200, outcomeCollided),
		txEvent(0, 2, 700, 200, 0),
		intervalEvent(0, 1),
	}
	m := runMonitor(t, cfg, events)
	if n := m.Count(); n != 0 {
		t.Fatalf("mutually-collided overlap flagged: %v", m.Violations())
	}
}

func TestStrictModeStickyError(t *testing.T) {
	cfg := testConfig()
	cfg.Strict = true
	m := runMonitor(t, cfg, []telemetry.Event{
		txEvent(0, 0, 300, 200, outcomeCollided),
	})
	if m.Err() == nil {
		t.Fatal("strict monitor returned nil error after a violation")
	}
	if !strings.Contains(m.Err().Error(), "collision_free") {
		t.Errorf("error %q does not name the check", m.Err())
	}
	first := m.Err()
	m.Emit(txEvent(1, 1, 1300, 200, outcomeCollided))
	if m.Err() != first {
		t.Error("strict error is not sticky: later violation replaced it")
	}
}

func TestNonStrictNeverErrors(t *testing.T) {
	m := runMonitor(t, testConfig(), []telemetry.Event{
		txEvent(0, 0, 300, 200, outcomeCollided),
	})
	if m.Err() != nil {
		t.Fatalf("non-strict monitor errored: %v", m.Err())
	}
	if m.Count() != 1 {
		t.Fatalf("violation not counted")
	}
}

func TestRegistryCounters(t *testing.T) {
	cfg := testConfig()
	cfg.Registry = telemetry.NewRegistry()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Emit(txEvent(0, 0, 300, 200, outcomeCollided))
	m.Emit(prioEvent(0, 1, 2, 2, 4))
	total := cfg.Registry.Counter("rtmac_monitor_violations_total", "").Value()
	if total != 2 {
		t.Errorf("rtmac_monitor_violations_total = %d, want 2", total)
	}
	coll := cfg.Registry.Counter("rtmac_monitor_violations_total_collision_free", "").Value()
	if coll != 1 {
		t.Errorf("collision_free counter = %d, want 1", coll)
	}
	perm := cfg.Registry.Counter("rtmac_monitor_violations_total_permutation_valid", "").Value()
	if perm != 1 {
		t.Errorf("permutation_valid counter = %d, want 1", perm)
	}
}

// collectSink retains emitted events for assertions.
type collectSink struct{ events []telemetry.Event }

func (c *collectSink) Emit(ev telemetry.Event) { c.events = append(c.events, ev) }

func TestOutputSinkReceivesViolationEvents(t *testing.T) {
	out := &collectSink{}
	cfg := testConfig()
	cfg.Output = out
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Emit(txEvent(0, 0, 300, 200, outcomeCollided))
	if len(out.events) != 1 {
		t.Fatalf("output sink saw %d events, want 1", len(out.events))
	}
	ev := out.events[0]
	if ev.Kind != telemetry.EventViolation || ev.Check != "collision_free" {
		t.Errorf("violation event kind=%q check=%q", ev.Kind, ev.Check)
	}
	if ev.Msg == "" {
		t.Error("violation event has no message")
	}
}

func TestMonitorIgnoresViolationEvents(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Emit(telemetry.Event{
		K: 0, Link: -1, Kind: telemetry.EventViolation,
		Check: "collision_free", Msg: "forged",
	})
	if m.Count() != 0 {
		t.Fatal("monitor re-processed a violation event")
	}
}

func TestAuditCorruptedStreamFindsDistinctChecks(t *testing.T) {
	// One stream carrying a forged duplicate priority, a double swap draw, a
	// synthetic collision and broken debt bookkeeping: the offline audit must
	// surface at least three distinct checks.
	events := []telemetry.Event{
		debtEvent(0, 1.0),
		intervalEvent(0, 3),
		prioEvent(0, 1, 2, 3, 4),
		txEvent(1, 0, 1300, 200, outcomeCollided),
		swapEvent(1, 1, 0, 1, false),
		swapEvent(1, 3, 2, 3, false),
		debtEvent(1, 9.0), // predicts 1 + 4 - 3 = 2
		intervalEvent(1, 3),
		prioEvent(1, 1, 2, 2, 4),
	}
	vs, err := Audit(events, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]bool{}
	for _, v := range vs {
		checks[v.Check] = true
	}
	if len(checks) < 3 {
		t.Fatalf("audit found %d distinct checks (%v), want >= 3", len(checks), vs)
	}
	for _, want := range []string{"permutation_valid", "single_adjacent_swap", "collision_free", "debt_sane"} {
		if !checks[want] {
			t.Errorf("audit missed check %q", want)
		}
	}
}

func TestInferConfig(t *testing.T) {
	events := []telemetry.Event{
		txEvent(0, 2, 300, 200, 0),
		swapEvent(0, 1, 0, 1, true),
		intervalEvent(0, 3),
		prioEvent(0, 1, 2, 3, 4),
	}
	cfg, err := InferConfig(events)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Links != testLinks {
		t.Errorf("inferred %d links, want %d", cfg.Links, testLinks)
	}
	if cfg.Interval != testInterval {
		t.Errorf("inferred interval %v, want %v", cfg.Interval, testInterval)
	}
	if !cfg.CollisionFree {
		t.Error("swap/prio events present but collision-freedom not inferred")
	}
}

func TestInferConfigNoSwapEvents(t *testing.T) {
	events := []telemetry.Event{
		txEvent(0, 1, 300, 200, outcomeCollided),
		intervalEvent(0, 3),
	}
	cfg, err := InferConfig(events)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CollisionFree {
		t.Error("collision-freedom inferred for a stream without swap/prio events")
	}
	vs, err := Audit(events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("collision-prone stream flagged: %v", vs)
	}
}

func TestInferConfigErrors(t *testing.T) {
	if _, err := InferConfig(nil); err == nil {
		t.Error("empty stream inferred a configuration")
	}
	if _, err := InferConfig([]telemetry.Event{txEvent(0, 1, 300, 200, 0)}); err == nil {
		t.Error("stream without interval events inferred a configuration")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Links: 0, Interval: testInterval}); err == nil {
		t.Error("zero links accepted")
	}
	if _, err := New(Config{Links: 4, Interval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := New(Config{Links: 4, Interval: testInterval, SwapPairs: -1}); err == nil {
		t.Error("negative swap pairs accepted")
	}
}

func TestRetentionBound(t *testing.T) {
	m := runMonitor(t, testConfig(), nil)
	for i := 0; i < maxRetained+50; i++ {
		m.Emit(txEvent(int64(i), 0, sim.Time(i)*testInterval+300, 200, outcomeCollided))
	}
	if got := len(m.Violations()); got != maxRetained {
		t.Errorf("retained %d violations, want %d", got, maxRetained)
	}
	if m.Count() != int64(maxRetained+50) {
		t.Errorf("count %d, want %d", m.Count(), maxRetained+50)
	}
}
