package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmac"
)

const asymmetricJSON = `{
  "seed": 7,
  "intervals": 50,
  "profile": {"preset": "video"},
  "protocol": {"name": "dbdp"},
  "links": [
    {"count": 2, "successProb": 0.5,
     "arrivals": {"type": "video", "param": 0.35}, "deliveryRatio": 0.9},
    {"count": 3, "successProb": 0.8,
     "arrivals": {"type": "video", "param": 0.7}, "deliveryRatio": 0.9}
  ]
}`

func TestLoadAndRun(t *testing.T) {
	cfg, net, intervals, err := Load(strings.NewReader(asymmetricJSON))
	if err != nil {
		t.Fatal(err)
	}
	if net != nil {
		t.Fatal("document without nodes produced a topology")
	}
	if intervals != 50 {
		t.Fatalf("intervals = %d", intervals)
	}
	if len(cfg.Links) != 5 {
		t.Fatalf("links = %d, want 5", len(cfg.Links))
	}
	if cfg.Links[0].SuccessProb != 0.5 || cfg.Links[4].SuccessProb != 0.8 {
		t.Fatalf("group expansion wrong: %+v", cfg.Links)
	}
	sim, err := rtmac.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(intervals); err != nil {
		t.Fatal(err)
	}
	if sim.Report().Channel.Collisions != 0 {
		t.Fatal("DB-DP collided")
	}
}

// topologyJSON declares nodes, so its links are named.
const topologyJSON = `{
  "seed": 1, "intervals": 20,
  "profile": {"preset": "control"},
  "protocol": {"name": "ldf"},
  "accessPoints": ["ap"],
  "clients": ["c1"],
  "links": [{"name": "dl", "from": "ap", "to": "c1",
             "successProb": 0.9, "arrivals": {"type": "fixed", "param": 1},
             "deliveryRatio": 1}]
}`

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, doc        string
		links, intervals int
		named            bool
	}{
		{"groups.json", asymmetricJSON, 5, 50, false},
		{"topology.json", topologyJSON, 1, 20, true},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, net, intervals, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(cfg.Links) != tc.links || intervals != tc.intervals {
			t.Fatalf("%s: %d links, %d intervals", tc.name, len(cfg.Links), intervals)
		}
		if (net != nil) != tc.named || (net != nil && net.NumLinks() != tc.links) {
			t.Fatalf("%s: topology %v, want named links %v", tc.name, net, tc.named)
		}
		sim, err := rtmac.NewSimulation(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := sim.Run(intervals); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	if _, _, _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadFile(garbage); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestAllProtocols(t *testing.T) {
	for _, name := range []string{"dbdp", "ldf", "eldf", "fcsma", "framecsma", "tdma", "dcf"} {
		doc := Document{
			Seed:      1,
			Intervals: 10,
			Profile:   ProfileSpec{Preset: "control"},
			Protocol:  ProtocolSpec{Name: name},
			Links: []LinkSpec{{
				Count:         3,
				SuccessProb:   0.7,
				Arrivals:      ArrivalsSpec{Type: "bernoulli", Param: 0.5},
				DeliveryRatio: 0.9,
			}},
		}
		cfg, _, intervals, err := Build(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sim, err := rtmac.NewSimulation(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sim.Run(intervals); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestProtocolOptions(t *testing.T) {
	doc := Document{
		Seed:      1,
		Intervals: 10,
		Profile:   ProfileSpec{Preset: "control"},
		Protocol:  ProtocolSpec{Name: "dbdp", Pairs: 2, Influence: "log", Scale: 50, R: 5},
		Links: []LinkSpec{{
			Count: 6, SuccessProb: 0.7,
			Arrivals:      ArrivalsSpec{Type: "fixed", Param: 1},
			DeliveryRatio: 0.9,
		}},
	}
	cfg, _, intervals, err := Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := rtmac.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(intervals); err != nil {
		t.Fatal(err)
	}
	doc.Protocol = ProtocolSpec{Name: "dbdp", Frozen: true}
	if _, _, _, err := Build(doc); err != nil {
		t.Fatal(err)
	}
}

func TestAllArrivalTypes(t *testing.T) {
	for _, spec := range []ArrivalsSpec{
		{Type: "bernoulli", Param: 0.5},
		{Type: "video", Param: 0.4},
		{Type: "fixed", Param: 2},
		{Type: "bursty", Param: 0.5, Lo: 1, Hi: 3},
		{Type: "binomial", Param: 0.4, N: 5},
	} {
		if _, err := buildArrivals(spec); err != nil {
			t.Errorf("%s: %v", spec.Type, err)
		}
	}
}

func TestCustomProfile(t *testing.T) {
	doc := Document{
		Seed:      1,
		Intervals: 10,
		Profile:   ProfileSpec{PayloadBytes: 200, RateMbps: 54, DeadlineUs: 3000},
		Protocol:  ProtocolSpec{Name: "ldf"},
		Links: []LinkSpec{{
			Count: 2, SuccessProb: 0.9,
			Arrivals: ArrivalsSpec{Type: "fixed", Param: 1}, DeliveryRatio: 1,
		}},
	}
	cfg, _, _, err := Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profile.SlotsPerInterval() <= 0 {
		t.Fatal("custom profile fits nothing")
	}
}

func TestRejections(t *testing.T) {
	base := func() Document {
		return Document{
			Seed:      1,
			Intervals: 10,
			Profile:   ProfileSpec{Preset: "control"},
			Protocol:  ProtocolSpec{Name: "ldf"},
			Links: []LinkSpec{{
				Count: 1, SuccessProb: 0.5,
				Arrivals: ArrivalsSpec{Type: "fixed", Param: 1}, DeliveryRatio: 1,
			}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Document)
	}{
		{"zero intervals", func(d *Document) { d.Intervals = 0 }},
		{"bad preset", func(d *Document) { d.Profile = ProfileSpec{Preset: "lte"} }},
		{"bad protocol", func(d *Document) { d.Protocol.Name = "aloha" }},
		{"bad arrivals", func(d *Document) { d.Links[0].Arrivals.Type = "poisson" }},
		{"bad influence", func(d *Document) { d.Protocol = ProtocolSpec{Name: "eldf", Influence: "exp"} }},
		{"zero count", func(d *Document) { d.Links[0].Count = 0 }},
		{"fractional fixed count", func(d *Document) { d.Links[0].Arrivals.Param = 0.78 }},
		{"negative fixed count", func(d *Document) { d.Links[0].Arrivals.Param = -2 }},
		{"negative pairs", func(d *Document) { d.Protocol = ProtocolSpec{Name: "dbdp", Pairs: -1} }},
		{"pairs on a non-dbdp protocol", func(d *Document) { d.Protocol.Pairs = 2 }},
		{"named link without nodes", func(d *Document) {
			d.Links[0].Name, d.Links[0].From, d.Links[0].To = "up", "sensor", "ap"
		}},
		{"named conflict edges without nodes", func(d *Document) {
			d.Links[0].Count = 2
			d.Conflicts = &ConflictsSpec{Names: [][2]string{{"a", "b"}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := base()
			tc.mutate(&doc)
			if _, _, _, err := Build(doc); err == nil {
				t.Fatal("invalid document accepted")
			}
		})
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, _, _, err := Load(strings.NewReader(`{"intervals": 10, "bogus": true}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestLoadRejectsTrailingData requires Load to reject anything but
// whitespace after the document.
func TestLoadRejectsTrailingData(t *testing.T) {
	raw, err := os.ReadFile("../scenarios/control.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Load(bytes.NewReader(append(raw, " \t\r\n"...))); err != nil {
		t.Fatalf("control.json with trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{`{"bogus": 1} trailing`, `trailing`, `]`, `1`} {
		if _, _, _, err := Load(bytes.NewReader(append(raw, tail...))); err == nil {
			t.Errorf("control.json followed by %q accepted", tail)
		}
	}
}

func TestFadingScenario(t *testing.T) {
	doc := Document{
		Seed:      1,
		Intervals: 200,
		Profile:   ProfileSpec{Preset: "control"},
		Protocol:  ProtocolSpec{Name: "dbdp"},
		Fading: &FadingSpec{
			PGood: 0.85, PBad: 0.45,
			GoodToBad: 0.05, BadToGood: 0.05,
			PeriodUs: 1000,
		},
		Links: []LinkSpec{{
			Count:         4,
			Arrivals:      ArrivalsSpec{Type: "bernoulli", Param: 0.5},
			DeliveryRatio: 0.9,
		}},
	}
	cfg, _, intervals, err := Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fading == nil || cfg.Fading.Period != 1000 {
		t.Fatalf("fading not wired: %+v", cfg.Fading)
	}
	sim, err := rtmac.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(intervals); err != nil {
		t.Fatal(err)
	}
	rep := sim.Report()
	if rep.Channel.Losses == 0 {
		t.Fatal("fading channel produced no losses")
	}
}

func TestBuildTopology(t *testing.T) {
	doc := Document{
		Name:         "cell",
		Seed:         1,
		Intervals:    100,
		Profile:      ProfileSpec{Preset: "control"},
		Protocol:     ProtocolSpec{Name: "dbdp"},
		AccessPoints: []string{"ap"},
		Clients:      []string{"sensor", "actuator"},
		Links: []LinkSpec{
			{Name: "up", From: "sensor", To: "ap", SuccessProb: 0.7,
				Arrivals: ArrivalsSpec{Type: "bernoulli", Param: 0.5}, DeliveryRatio: 0.95},
			{Name: "d2d", From: "sensor", To: "actuator", SuccessProb: 0.6,
				Arrivals: ArrivalsSpec{Type: "bernoulli", Param: 0.2}, DeliveryRatio: 0.9},
		},
	}
	cfg, net, intervals, err := Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumLinks() != 2 || len(cfg.Links) != 2 || intervals != 100 {
		t.Fatalf("compiled %d links, %d intervals", net.NumLinks(), intervals)
	}
	sim, err := rtmac.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(intervals); err != nil {
		t.Fatal(err)
	}
	rep := sim.Report()
	worstName, _ := net.LinkName(0)
	if worstName != "up" {
		t.Fatalf("link 0 named %q", worstName)
	}
	if rep.Channel.Collisions != 0 {
		t.Fatal("collisions")
	}

	// Error paths: each mutation of the valid document must be rejected.
	for _, tc := range []struct {
		name   string
		mutate func(*Document)
	}{
		{"unknown node", func(d *Document) { d.Links[0].From = "ghost" }},
		{"zero intervals", func(d *Document) { d.Intervals = 0 }},
		{"bad arrivals", func(d *Document) { d.Links[0].Arrivals.Type = "poisson" }},
		{"count on a named link", func(d *Document) { d.Links[0].Count = 2 }},
		{"unnamed link", func(d *Document) { d.Links[0].Name = "" }},
		{"no links", func(d *Document) { d.Links = nil }},
	} {
		bad := doc
		bad.Links = append([]LinkSpec(nil), doc.Links...)
		tc.mutate(&bad)
		if _, _, _, err := Build(bad); err == nil {
			t.Errorf("%s: document accepted", tc.name)
		}
	}
}
