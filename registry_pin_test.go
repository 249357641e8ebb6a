package rtmac_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"rtmac"
)

// histogramPin renders one registry histogram as its bucket counts, _count
// and _sum, the sum with %.17g so that any change to its bits shows.
func histogramPin(t *testing.T, s *rtmac.Simulation, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Telemetry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var metrics []struct {
		Name   string   `json:"name"`
		Counts []uint64 `json:"counts"`
		Sum    float64  `json:"sum"`
		Total  uint64   `json:"total"`
	}
	if err := json.Unmarshal(buf.Bytes(), &metrics); err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics {
		if m.Name == name {
			return fmt.Sprintf("counts=%v count=%d sum=%.17g", m.Counts, m.Total, m.Sum)
		}
	}
	t.Fatalf("registry has no %s", name)
	return ""
}

// TestRegistryHistogramPins pins the two always-on registry histograms after
// 2000 seed-1 intervals: DB-DP on the paper's control channel and on two
// disjoint 10-link cliques, and DCF on the control channel. The histograms
// observe in batches (one lock per interval); the DB-DP values were
// recorded when they observed one value per call, so they show that
// batching changes no statistic. DCF re-enters contention after every
// exchange and draws more backoffs in an interval than there are links, so
// its row also covers the early batch a full buffer forces.
func TestRegistryHistogramPins(t *testing.T) {
	control := cliqueConfig(t, 10, rtmac.DBDP(), 1)
	control.Conflicts = nil
	dcf := cliqueConfig(t, 10, rtmac.DCF(), 1)
	dcf.Conflicts = nil
	cases := []struct {
		name          string
		cfg           rtmac.Config
		debt, backoff string
	}{
		{"control", control,
			"counts=[10898 146 160 322 685 1162 1772 3516 1339 0 0] count=20000 sum=84101.003200000792",
			"counts=[1616 1612 1384 2576 5273 4080 0 0 0 0 0 0 0] count=16541 sum=88570"},
		{"two-cliques", cliqueConfig(t, 20, rtmac.DBDP(), 1),
			"counts=[20703 287 301 580 1158 2331 4028 6181 2865 1566 0] count=40000 sum=232134.52799999784",
			"counts=[3116 3147 3122 6283 12485 3100 0 0 0 0 0 0 0] count=31253 sum=140561"},
		{"dcf", dcf,
			"counts=[143 28 26 43 37 124 338 571 673 1506 16511] count=20000 sum=3634712.8867999748",
			"counts=[963 978 1036 2044 4054 7276 4130 2239 1333 909 509 295 0] count=25766 sum=1049685"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := rtmac.NewSimulation(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(2000); err != nil {
				t.Fatal(err)
			}
			if got := histogramPin(t, s, "rtmac_debt_positive"); got != tc.debt {
				t.Errorf("rtmac_debt_positive:\n got %s\nwant %s", got, tc.debt)
			}
			if got := histogramPin(t, s, "rtmac_backoff_slots"); got != tc.backoff {
				t.Errorf("rtmac_backoff_slots:\n got %s\nwant %s", got, tc.backoff)
			}
		})
	}
}
