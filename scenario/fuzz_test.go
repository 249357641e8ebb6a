package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"rtmac"
)

// conflictTopologyJSON is a well-formed document with nodes exercising the
// conflicts section, including deliberately duplicated and reversed pairs
// (both idempotent by the symmetrize-and-dedup rule).
const conflictTopologyJSON = `{
  "seed": 1, "intervals": 2,
  "profile": {"preset": "control"},
  "protocol": {"name": "dbdp"},
  "accessPoints": ["ap"],
  "clients": ["c1", "c2", "c3"],
  "links": [
    {"name": "l1", "from": "c1", "to": "ap", "successProb": 0.7,
     "arrivals": {"type": "fixed", "param": 1}, "deliveryRatio": 0.9},
    {"name": "l2", "from": "c2", "to": "ap", "successProb": 0.7,
     "arrivals": {"type": "fixed", "param": 1}, "deliveryRatio": 0.9},
    {"name": "l3", "from": "ap", "to": "c3", "successProb": 0.7,
     "arrivals": {"type": "fixed", "param": 1}, "deliveryRatio": 0.9}
  ],
  "conflicts": {"names": [["l1", "l2"], ["l2", "l1"], ["l1", "l2"]]}
}`

// FuzzLoad feeds arbitrary bytes through the JSON scenario loader, in both
// link forms. Every accepted document must be followed by nothing but
// whitespace, name only distinct, declared links in its conflict pairs, compile into a conflict graph that is
// symmetric and covers exactly the declared links, and produce a
// configuration that NewSimulation either accepts or rejects cleanly —
// never a panic.
func FuzzLoad(f *testing.F) {
	f.Add(asymmetricJSON)
	f.Add(`{"intervals": 1}`)
	f.Add(`{"seed": 3, "intervals": 2, "profile": {"preset": "control"},
		"protocol": {"name": "ldf"},
		"links": [{"count": 1, "successProb": 0.5,
		           "arrivals": {"type": "fixed", "param": 1}, "deliveryRatio": 1}]}`)
	f.Add(`not json at all`)
	f.Add(`{"profile": {"payloadBytes": -5}}`)
	f.Add(conflictTopologyJSON)
	f.Add(strings.Replace(conflictTopologyJSON,
		`[["l1", "l2"], ["l2", "l1"], ["l1", "l2"]]`, `[["l1", "l1"]]`, 1))
	f.Add(strings.Replace(conflictTopologyJSON,
		`[["l1", "l2"], ["l2", "l1"], ["l1", "l2"]]`, `[["l1", "ghost"]]`, 1))
	f.Add(strings.Replace(conflictTopologyJSON,
		`"names": [["l1", "l2"], ["l2", "l1"], ["l1", "l2"]]`,
		`"mode": "cliques", "cliques": [[0, 1], [2]]`, 1))
	f.Add(strings.Replace(conflictTopologyJSON,
		`"names": [["l1", "l2"], ["l2", "l1"], ["l1", "l2"]]`, `"mode": "none"`, 1))
	f.Add(strings.Replace(conflictTopologyJSON,
		`"names": [["l1", "l2"], ["l2", "l1"], ["l1", "l2"]]`,
		`"mode": "complete", "edges": [[0, 1]]`, 1))
	f.Add(`{"accessPoints": ["ap"], "clients": [], "links": []}`)
	f.Add(`not json`)
	f.Add(`{"intervals": 1} {"bogus": 1} trailing`)
	f.Add("{\"intervals\": 1}\n\t ")
	f.Fuzz(func(t *testing.T, raw string) {
		cfg, net, intervals, err := Load(strings.NewReader(raw))
		if err != nil {
			return // rejected cleanly
		}
		if intervals <= 0 {
			t.Fatalf("accepted document with intervals %d", intervals)
		}
		if net != nil && net.NumLinks() != len(cfg.Links) {
			t.Fatalf("topology names %d links, config has %d", net.NumLinks(), len(cfg.Links))
		}
		var doc Document
		dec := json.NewDecoder(strings.NewReader(raw))
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("accepted document does not decode: %v", err)
		}
		if rest := raw[dec.InputOffset():]; strings.Trim(rest, " \t\r\n") != "" {
			t.Fatalf("accepted document followed by %q", rest)
		}
		if doc.Conflicts != nil {
			for _, pair := range doc.Conflicts.Names {
				if net == nil || pair[0] == pair[1] {
					t.Fatalf("accepted conflict pair %q without nodes or with itself", pair)
				}
				for _, name := range pair {
					if _, err := net.LinkIndex(name); err != nil {
						t.Fatalf("accepted conflict pair %q: %v", pair, err)
					}
				}
			}
		}
		if g := cfg.Conflicts; g != nil {
			if g.Links() != len(cfg.Links) {
				t.Fatalf("conflict graph covers %d links, document declares %d",
					g.Links(), len(cfg.Links))
			}
			n := g.Links()
			if n > 64 {
				n = 64 // bound the quadratic sweep on adversarial documents
			}
			for a := 0; a < n; a++ {
				if !g.Conflicts(a, a) {
					t.Fatalf("link %d does not conflict with itself", a)
				}
				for b := a + 1; b < n; b++ {
					if g.Conflicts(a, b) != g.Conflicts(b, a) {
						t.Fatalf("asymmetric conflict between %d and %d", a, b)
					}
				}
			}
		}
		sim, err := rtmac.NewSimulation(cfg)
		if err != nil {
			return // the config layer rejected it cleanly
		}
		// Cap the work: one interval suffices to exercise the machinery.
		if err := sim.Run(1); err != nil {
			t.Fatalf("accepted config failed to run: %v", err)
		}
	})
}

// TestConflictTopologyValidation pins the loader's error paths the fuzz
// corpus seeds: self-conflicts and unknown names are rejected, duplicates
// and reversed pairs collapse to one edge.
func TestConflictTopologyValidation(t *testing.T) {
	cfg, _, _, err := Load(strings.NewReader(conflictTopologyJSON))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Conflicts == nil {
		t.Fatal("conflicts section did not produce a graph")
	}
	if got := cfg.Conflicts.Edges(); got != 1 {
		t.Errorf("duplicate and reversed pairs should collapse to 1 edge, got %d", got)
	}
	if !cfg.Conflicts.Conflicts(0, 1) || cfg.Conflicts.Conflicts(0, 2) {
		t.Error("wrong edge set after dedup")
	}
	for _, bad := range []struct{ name, repl string }{
		{"self-conflict", `[["l1", "l1"]]`},
		{"unknown-name", `[["l1", "ghost"]]`},
	} {
		doc := strings.Replace(conflictTopologyJSON,
			`[["l1", "l2"], ["l2", "l1"], ["l1", "l2"]]`, bad.repl, 1)
		if _, _, _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: document accepted, want error", bad.name)
		}
	}
}

// FuzzDecodeSLO feeds arbitrary bytes through the scenario slo section: any
// accepted document must build a simulation whose watch plane either enables
// cleanly or rejects with an error — never a panic, and never a run failure
// caused by the SLO declaration alone.
func FuzzDecodeSLO(f *testing.F) {
	f.Add(`{"budget": 0.1, "targets": [0.5, 0.5]}`)
	f.Add(`{"budget": 0.2}`)
	f.Add(`{"targets": []}`)
	f.Add(`{"budget": -1}`)
	f.Add(`{"budget": 1e999}`)
	f.Add(`{"targets": [1e308, -5]}`)
	f.Add(`null`)
	f.Add(`{"targets": [0.1, 0.2, 0.3]}`)
	f.Fuzz(func(t *testing.T, rawSLO string) {
		doc := `{"seed": 1, "intervals": 2, "profile": {"preset": "control"},
			"protocol": {"name": "dbdp"},
			"links": [{"count": 2, "successProb": 0.7,
			           "arrivals": {"type": "bernoulli", "param": 0.5}, "deliveryRatio": 0.9}],
			"slo": ` + rawSLO + `}`
		cfg, _, _, err := Load(strings.NewReader(doc))
		if err != nil {
			return // rejected cleanly
		}
		sim, err := rtmac.NewSimulation(cfg)
		if err != nil {
			return // the config layer rejected the SLO cleanly
		}
		w, err := sim.EnableWatch(rtmac.WatchConfig{})
		if err != nil {
			return // the watch layer rejected the SLO cleanly
		}
		if err := sim.Run(2); err != nil {
			t.Fatalf("accepted SLO broke the run: %v", err)
		}
		_ = w.Count()
	})
}
