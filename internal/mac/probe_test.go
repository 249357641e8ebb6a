package mac_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rtmac/internal/arrival"
	"rtmac/internal/core"
	"rtmac/internal/mac"
	"rtmac/internal/mac/dcf"
	"rtmac/internal/mac/fcsma"
	"rtmac/internal/mac/framecsma"
	"rtmac/internal/mac/ldf"
	"rtmac/internal/mac/tdma"
	"rtmac/internal/medium"
	"rtmac/internal/monitor"
	"rtmac/internal/perm"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

const oracleLinks = 6

// oracleCase is one network the monitor paths are compared on.
type oracleCase struct {
	name  string
	build func() (mac.Protocol, error)
	graph *medium.Graph
}

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	// A 6-ring is no union of cliques, so graph-mode DB-DP may collide on it.
	var ring [][2]int
	for i := 0; i < oracleLinks; i++ {
		ring = append(ring, [2]int{i, (i + 1) % oracleLinks})
	}
	g, err := medium.NewGraph(oracleLinks, ring)
	if err != nil {
		t.Fatal(err)
	}
	dbdp := func() (mac.Protocol, error) { return core.NewDBDP(oracleLinks) }
	return []oracleCase{
		{name: "dbdp", build: dbdp},
		{name: "ldf", build: func() (mac.Protocol, error) { return ldf.NewLDF(), nil }},
		{name: "fcsma", build: func() (mac.Protocol, error) { return fcsma.New(fcsma.DefaultConfig()) }},
		{name: "framecsma", build: func() (mac.Protocol, error) { return framecsma.New(framecsma.DefaultConfig()) }},
		{name: "tdma", build: func() (mac.Protocol, error) { return tdma.New(true), nil }},
		{name: "dcf", build: func() (mac.Protocol, error) { return dcf.New(oracleLinks) }},
		{name: "clashing", build: func() (mac.Protocol, error) { return mac.Clashing{}, nil }},
		{name: "dbdp-ring", build: dbdp, graph: g},
	}
}

// oracleNetwork builds a loaded control-profile network running prot.
func oracleNetwork(t *testing.T, prot mac.Protocol, graph *medium.Graph) *mac.Network {
	t.Helper()
	proc, err := arrival.NewBernoulli(0.7)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, oracleLinks)
	req := make([]float64, oracleLinks)
	procs := make([]arrival.Process, oracleLinks)
	for i := range procs {
		probs[i], req[i], procs[i] = 0.7, 0.9*proc.Mean(), proc
	}
	av, err := arrival.NewIndependent(procs...)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := mac.NewNetwork(mac.NetworkConfig{
		Seed:        3,
		Profile:     phy.Control(),
		SuccessProb: probs,
		Conflicts:   graph,
		Arrivals:    av,
		Required:    req,
		Protocol:    prot,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// oracleConfig arms every checker, collision_free included, so the
// collision-prone protocols exercise it too.
func oracleConfig(graph *medium.Graph, reg *telemetry.Registry) monitor.Config {
	return monitor.Config{
		Links:         oracleLinks,
		Interval:      phy.Control().Interval,
		CollisionFree: true,
		SwapPairs:     1,
		Conflicts:     graph,
		Registry:      reg,
	}
}

// monitorMetrics returns the rtmac_monitor_* metrics of reg by name.
func monitorMetrics(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "rtmac_monitor_") {
			out[m.Name] = m.Value
		}
	}
	return out
}

// TestProbeMonitorMatchesEventMonitor runs one network per protocol with
// two monitors attached, one fed typed records through AddProbe and one fed
// events through SetEventSink, and audits the recorded stream with a third.
// All three must reach the same verdicts: the same violations in the same
// order and the same rtmac_monitor_* counters and gauges.
func TestProbeMonitorMatchesEventMonitor(t *testing.T) {
	const intervals = 300
	for _, tc := range oracleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			prot, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			nw := oracleNetwork(t, prot, tc.graph)
			probeReg, sinkReg, auditReg := telemetry.NewRegistry(), telemetry.NewRegistry(), telemetry.NewRegistry()
			probeMon, err := monitor.New(oracleConfig(tc.graph, probeReg))
			if err != nil {
				t.Fatal(err)
			}
			sinkMon, err := monitor.New(oracleConfig(tc.graph, sinkReg))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			stream := telemetry.NewJSONL(&buf)
			nw.AddProbe(probeMon)
			nw.SetEventSink(telemetry.MultiSink{stream, sinkMon})
			if err := nw.Run(intervals); err != nil {
				t.Fatal(err)
			}
			if err := stream.Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := telemetry.DecodeJSONL(&buf)
			if err != nil {
				t.Fatal(err)
			}
			audited, err := monitor.Audit(events, oracleConfig(tc.graph, auditReg))
			if err != nil {
				t.Fatal(err)
			}

			if probeMon.Count() != sinkMon.Count() {
				t.Errorf("Count: probe %d, sink %d", probeMon.Count(), sinkMon.Count())
			}
			if !reflect.DeepEqual(probeMon.Violations(), sinkMon.Violations()) {
				t.Errorf("Violations differ:\nprobe %v\nsink  %v", probeMon.Violations(), sinkMon.Violations())
			}
			if !reflect.DeepEqual(probeMon.Violations(), audited) {
				t.Errorf("Violations differ:\nprobe %v\naudit %v", probeMon.Violations(), audited)
			}
			probe := monitorMetrics(probeReg)
			for name, other := range map[string]map[string]float64{"sink": monitorMetrics(sinkReg), "audit": monitorMetrics(auditReg)} {
				if !reflect.DeepEqual(probe, other) {
					t.Errorf("rtmac_monitor_* metrics: probe %v, %s %v", probe, name, other)
				}
			}
			if probe["rtmac_monitor_violations_total"] != float64(probeMon.Count()) {
				t.Errorf("violation counter %v, Count %d", probe["rtmac_monitor_violations_total"], probeMon.Count())
			}
			t.Logf("%d violations", probeMon.Count())
		})
	}
}

// orderLog records, in call order, which observer saw an interval close.
type orderLog []string

type logSink struct {
	name string
	log  *orderLog
}

func (s logSink) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.EventInterval {
		*s.log = append(*s.log, s.name)
	}
}

type logProbe struct {
	mac.NopProbe
	log *orderLog
}

func (p logProbe) EndInterval(int64, sim.Time, int, int, int, perm.Permutation) {
	*p.log = append(*p.log, "probe")
}

// TestProbeListOrder pins the probe list: the event adapter runs first
// wherever SetEventSink is called, replacing the sink keeps one adapter,
// and a nil sink removes it.
func TestProbeListOrder(t *testing.T) {
	prot, err := core.NewDBDP(oracleLinks)
	if err != nil {
		t.Fatal(err)
	}
	nw := oracleNetwork(t, prot, nil)
	var log orderLog
	nw.AddProbe(logProbe{log: &log})
	nw.SetEventSink(logSink{"a", &log})
	nw.SetEventSink(logSink{"b", &log})
	if err := nw.Run(1); err != nil {
		t.Fatal(err)
	}
	nw.SetEventSink(nil)
	if err := nw.Run(1); err != nil {
		t.Fatal(err)
	}
	if want := (orderLog{"b", "probe", "probe"}); !reflect.DeepEqual(log, want) {
		t.Errorf("interval closes seen by %v, want %v", log, want)
	}
}

// TestStrictMonitorAbortsViolatingProtocol feeds a strict monitor the event
// stream of a protocol that collides every interval: the interval check
// must abort the run at the end of the first interval, naming the check.
func TestStrictMonitorAbortsViolatingProtocol(t *testing.T) {
	nw := oracleNetwork(t, mac.Clashing{}, nil)
	mon, err := monitor.New(monitor.Config{
		Links:         oracleLinks,
		Interval:      phy.Control().Interval,
		CollisionFree: true,
		Strict:        true,
		Registry:      nw.Telemetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetEventSink(mon)
	nw.SetIntervalCheck(mon.Err)
	err = nw.Run(10)
	if err == nil {
		t.Fatal("strict monitor let a colliding protocol run to completion")
	}
	if !strings.Contains(err.Error(), "collision_free") {
		t.Errorf("error %q does not name the violated check", err)
	}
	if nw.Intervals() != 1 {
		t.Errorf("run aborted after %d intervals, want 1", nw.Intervals())
	}
	if mon.Count() == 0 {
		t.Error("monitor recorded no violations")
	}
}

// countProbe counts the records the coordinator and the context hand out.
type countProbe struct {
	mac.NopProbe
	backoffs, rounds, fires, senses int
}

func (c *countProbe) Backoff(int64, sim.Time, int, int) { c.backoffs++ }
func (c *countProbe) Round(int64, sim.Time, int, int)   { c.rounds++ }
func (c *countProbe) Fire(int64, sim.Time, int, bool)   { c.fires++ }
func (c *countProbe) Sense(int64, sim.Time, int, bool)  { c.senses++ }

// TestContentionRecordsReachProbesOnce pins the one fan-out the network
// installs on the coordinator: every probe sees each fire and sense exactly
// once, as many as observers installed directly on an unprobed twin run
// count, and FCSMA's private draws arrive as Round records only.
func TestContentionRecordsReachProbesOnce(t *testing.T) {
	const intervals = 200
	build := func() mac.Protocol {
		prot, err := core.NewDBDP(oracleLinks)
		if err != nil {
			t.Fatal(err)
		}
		return prot
	}
	plain := oracleNetwork(t, build(), nil)
	var fires, senses int
	plain.Contention().SetFireObserver(func(int, bool) { fires++ })
	plain.Contention().SetSenseObserver(func(int, bool) { senses++ })
	if err := plain.Run(intervals); err != nil {
		t.Fatal(err)
	}
	probed := oracleNetwork(t, build(), nil)
	a, b := &countProbe{}, &countProbe{}
	probed.AddProbe(a)
	probed.AddProbe(b)
	if err := probed.Run(intervals); err != nil {
		t.Fatal(err)
	}
	if fires == 0 || senses == 0 {
		t.Fatalf("control run fired %d and sensed %d times", fires, senses)
	}
	for _, c := range []*countProbe{a, b} {
		if c.fires != fires || c.senses != senses || c.rounds != 0 || c.backoffs == 0 {
			t.Errorf("probe saw %+v, want %d fires, %d senses, no rounds", *c, fires, senses)
		}
	}

	prot, err := fcsma.New(fcsma.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nw := oracleNetwork(t, prot, nil)
	c := &countProbe{}
	nw.AddProbe(c)
	if err := nw.Run(intervals); err != nil {
		t.Fatal(err)
	}
	if c.rounds == 0 || c.backoffs != 0 {
		t.Errorf("FCSMA probe saw %+v, want private rounds and no coordinator backoffs", *c)
	}
}
