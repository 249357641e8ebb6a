// Package scenario loads simulation configurations from JSON documents, so
// heterogeneous networks can be described in files instead of code. One
// schema, Document, takes its links in either of two forms. Without node
// declarations each entry is a group of count identical anonymous links, the
// groups the paper evaluates on:
//
//	{
//	  "seed": 1,
//	  "intervals": 5000,
//	  "profile": {"preset": "video"},
//	  "protocol": {"name": "dbdp"},
//	  "links": [
//	    {"count": 10, "successProb": 0.5,
//	     "arrivals": {"type": "video", "param": 0.35}, "deliveryRatio": 0.9},
//	    {"count": 10, "successProb": 0.8,
//	     "arrivals": {"type": "video", "param": 0.7}, "deliveryRatio": 0.9}
//	  ]
//	}
//
// A document that declares access points or clients names its nodes and
// links instead, the directed links of the paper's Figure 1; each entry is
// one link, compiled through rtmac/topology so reports map back to names:
//
//	{
//	  "name": "cell", "seed": 1, "intervals": 5000,
//	  "profile": {"preset": "control"},
//	  "protocol": {"name": "dbdp"},
//	  "accessPoints": ["ap1"],
//	  "clients": ["sensor", "actuator"],
//	  "links": [
//	    {"name": "telemetry", "from": "sensor", "to": "ap1",
//	     "successProb": 0.7, "arrivals": {"type": "bernoulli", "param": 0.5},
//	     "deliveryRatio": 0.99}
//	  ]
//	}
//
// Load and LoadFile return the rtmac.Config, the named topology (nil without
// nodes) and the interval count, ready for rtmac.NewSimulation. The commands
// rtmacsim and feascheck accept such files via -config, rtmacwatch via
// -scenario.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"rtmac"
	"rtmac/topology"
)

// Document is the JSON schema.
type Document struct {
	// Name labels the topology of a document with nodes; default "scenario".
	Name      string       `json:"name,omitempty"`
	Seed      uint64       `json:"seed"`
	Intervals int          `json:"intervals"`
	Profile   ProfileSpec  `json:"profile"`
	Protocol  ProtocolSpec `json:"protocol"`
	// AccessPoints and Clients declare the nodes named links run between.
	// Declaring any makes every link entry a named link.
	AccessPoints []string      `json:"accessPoints,omitempty"`
	Clients      []string      `json:"clients,omitempty"`
	Links        []LinkSpec    `json:"links"`
	Snapshots    SnapshotsSpec `json:"snapshots"`
	// Fading, when present, replaces every link's static successProb with a
	// network-wide Gilbert–Elliott fading channel.
	Fading *FadingSpec `json:"fading,omitempty"`
	// Conflicts, when present, replaces the fully-interfering channel with a
	// partial interference graph; absent means the complete graph (every
	// pair of links conflicts), the paper's model.
	Conflicts *ConflictsSpec `json:"conflicts,omitempty"`
	// SLO, when present, declares the scenario's conformance objectives for
	// the watch plane (-watch). Absent means the defaults: per-link targets
	// equal to the feasibility-derived requirement vector q_i with the
	// standard deadline-miss budget.
	SLO *SLOSpec `json:"slo,omitempty"`
}

// SLOSpec mirrors rtmac.SLOConfig in JSON form.
type SLOSpec struct {
	// Budget is the deadline-miss budget fraction in [0, 1]; 0 selects the
	// default (0.1).
	Budget float64 `json:"budget,omitempty"`
	// Targets overrides the per-link SLO targets (delivered packets per
	// interval); when present it must have one entry per link.
	Targets []float64 `json:"targets,omitempty"`
}

// buildSLO compiles the spec; validation happens in rtmac.NewSimulation,
// which knows the link count.
func buildSLO(spec *SLOSpec) *rtmac.SLOConfig {
	if spec == nil {
		return nil
	}
	return &rtmac.SLOConfig{
		Budget:  spec.Budget,
		Targets: append([]float64(nil), spec.Targets...),
	}
}

// ConflictsSpec declares the interference topology as a conflict graph over
// the scenario's links.
type ConflictsSpec struct {
	// Mode is "complete" (every pair conflicts — same as omitting the
	// section), "none" (no pair conflicts), "edges" (explicit conflict
	// pairs), or "cliques" (a union of collision domains). Empty infers
	// "edges" or "cliques" when the matching list is present, else
	// "complete".
	Mode string `json:"mode,omitempty"`
	// Edges lists conflicting link pairs by index. Duplicate and reversed
	// pairs are idempotent; self-conflicts are errors.
	Edges [][2]int `json:"edges,omitempty"`
	// Names lists conflicting link pairs by link name (documents with
	// nodes only). Unknown names and self-conflicts are errors.
	Names [][2]string `json:"names,omitempty"`
	// Cliques lists collision domains by link index: every pair within a
	// clique conflicts.
	Cliques [][]int `json:"cliques,omitempty"`
}

// mode resolves the effective mode, inferring it from the populated lists
// when unset.
func (s *ConflictsSpec) mode() string {
	if s.Mode != "" {
		return s.Mode
	}
	switch {
	case len(s.Cliques) > 0:
		return "cliques"
	case len(s.Edges) > 0 || len(s.Names) > 0:
		return "edges"
	default:
		return "complete"
	}
}

// buildConflicts compiles the spec for an n-link network. nameIndex resolves
// link names to indices (nil for documents without nodes, where named edges
// are an error).
func buildConflicts(spec *ConflictsSpec, n int, nameIndex func(string) (int, error)) (*rtmac.ConflictGraph, error) {
	if spec == nil {
		return nil, nil
	}
	mode := spec.mode()
	if mode != "edges" && (len(spec.Edges) > 0 || len(spec.Names) > 0) {
		return nil, fmt.Errorf("scenario: conflicts mode %q does not take edges", mode)
	}
	if mode != "cliques" && len(spec.Cliques) > 0 {
		return nil, fmt.Errorf("scenario: conflicts mode %q does not take cliques", mode)
	}
	switch mode {
	case "complete":
		return rtmac.CompleteConflicts(n)
	case "none":
		return rtmac.NewConflictGraph(n, nil)
	case "edges":
		edges := spec.Edges
		if len(spec.Names) > 0 {
			if nameIndex == nil {
				return nil, fmt.Errorf("scenario: named conflict edges need named links, but the document declares no nodes")
			}
			edges = append([][2]int(nil), edges...)
			for _, pair := range spec.Names {
				a, err := nameIndex(pair[0])
				if err != nil {
					return nil, fmt.Errorf("scenario: conflicts: %w", err)
				}
				b, err := nameIndex(pair[1])
				if err != nil {
					return nil, fmt.Errorf("scenario: conflicts: %w", err)
				}
				if a == b {
					return nil, fmt.Errorf("scenario: conflicts: link %q conflicts with itself", pair[0])
				}
				edges = append(edges, [2]int{a, b})
			}
		}
		return rtmac.NewConflictGraph(n, edges)
	case "cliques":
		return rtmac.CliqueConflicts(n, spec.Cliques)
	default:
		return nil, fmt.Errorf("scenario: unknown conflicts mode %q", mode)
	}
}

// FadingSpec mirrors rtmac.Fading.
type FadingSpec struct {
	PGood     float64 `json:"pGood"`
	PBad      float64 `json:"pBad"`
	GoodToBad float64 `json:"goodToBad"`
	BadToGood float64 `json:"badToGood"`
	PeriodUs  int64   `json:"periodUs"`
}

// ProfileSpec selects a PHY profile: either a preset name or custom
// parameters.
type ProfileSpec struct {
	// Preset is "video" or "control"; empty means custom.
	Preset string `json:"preset,omitempty"`
	// Custom parameters (used when Preset is empty).
	PayloadBytes int     `json:"payloadBytes,omitempty"`
	RateMbps     float64 `json:"rateMbps,omitempty"`
	DeadlineUs   int64   `json:"deadlineUs,omitempty"`
	Name         string  `json:"name,omitempty"`
}

// ProtocolSpec selects the policy.
type ProtocolSpec struct {
	// Name is dbdp | ldf | eldf | fcsma | framecsma | tdma | dcf.
	Name string `json:"name"`
	// Pairs enables DB-DP's multi-pair extension when > 1; other
	// protocols reject it.
	Pairs int `json:"pairs,omitempty"`
	// Frozen disables DB-DP's reordering.
	Frozen bool `json:"frozen,omitempty"`
	// Influence selects the debt influence function for dbdp/eldf:
	// "paperlog" (default), "identity", or "log" with Scale.
	Influence string  `json:"influence,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	// R overrides DB-DP's Glauber constant (default 10).
	R float64 `json:"r,omitempty"`
}

// LinkSpec is one entry of the links list. Without node declarations it is
// a group of Count identical anonymous links; with them it is one directed
// link Name from node From to node To.
type LinkSpec struct {
	Count         int          `json:"count,omitempty"`
	Name          string       `json:"name,omitempty"`
	From          string       `json:"from,omitempty"`
	To            string       `json:"to,omitempty"`
	SuccessProb   float64      `json:"successProb,omitempty"`
	Arrivals      ArrivalsSpec `json:"arrivals"`
	DeliveryRatio float64      `json:"deliveryRatio,omitempty"`
	Required      float64      `json:"required,omitempty"`
}

// ArrivalsSpec selects the arrival process.
type ArrivalsSpec struct {
	// Type is bernoulli | video | fixed | bursty | binomial.
	Type string `json:"type"`
	// Param is the main parameter: Bernoulli p, video alpha, fixed count,
	// bursty alpha, binomial p.
	Param float64 `json:"param"`
	// Lo/Hi bound the bursty burst size; N sets binomial trials.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	N  int `json:"n,omitempty"`
}

// SnapshotsSpec enables convergence snapshots.
type SnapshotsSpec struct {
	Every int `json:"every,omitempty"`
}

// Load parses a JSON document and assembles the configuration, the named
// topology (nil when the document declares no nodes) and the interval count.
// Only whitespace may follow the document.
func Load(r io.Reader) (rtmac.Config, *topology.Network, int, error) {
	var doc Document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return rtmac.Config{}, nil, 0, fmt.Errorf("scenario: parsing: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return rtmac.Config{}, nil, 0, fmt.Errorf("scenario: parsing: data after the document")
	}
	return Build(doc)
}

// LoadFile is Load over a file path.
func LoadFile(path string) (rtmac.Config, *topology.Network, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return rtmac.Config{}, nil, 0, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Build assembles a configuration, the named topology (nil when the document
// declares no nodes) and the interval count from an already-decoded
// document.
func Build(doc Document) (rtmac.Config, *topology.Network, int, error) {
	if doc.Intervals <= 0 {
		return rtmac.Config{}, nil, 0, fmt.Errorf("scenario: intervals must be positive, got %d", doc.Intervals)
	}
	profile, err := buildProfile(doc.Profile)
	if err != nil {
		return rtmac.Config{}, nil, 0, err
	}
	protocol, err := buildProtocol(doc.Protocol)
	if err != nil {
		return rtmac.Config{}, nil, 0, err
	}
	links, net, err := buildLinks(doc)
	if err != nil {
		return rtmac.Config{}, nil, 0, err
	}
	var nameIndex func(string) (int, error)
	if net != nil {
		nameIndex = net.LinkIndex
	}
	conflicts, err := buildConflicts(doc.Conflicts, len(links), nameIndex)
	if err != nil {
		return rtmac.Config{}, nil, 0, err
	}
	cfg := rtmac.Config{
		Seed:          doc.Seed,
		Profile:       profile,
		Links:         links,
		Conflicts:     conflicts,
		Protocol:      protocol,
		SnapshotEvery: doc.Snapshots.Every,
		SLO:           buildSLO(doc.SLO),
	}
	if doc.Fading != nil {
		cfg.Fading = &rtmac.Fading{
			PGood:     doc.Fading.PGood,
			PBad:      doc.Fading.PBad,
			GoodToBad: doc.Fading.GoodToBad,
			BadToGood: doc.Fading.BadToGood,
			Period:    rtmac.Time(doc.Fading.PeriodUs) * rtmac.Microsecond,
		}
	}
	return cfg, net, doc.Intervals, nil
}

// buildLinks expands the link entries: groups of anonymous links when the
// document declares no nodes, else one named link each, compiled through a
// topology that the caller gets back to map indices to names.
func buildLinks(doc Document) ([]rtmac.Link, *topology.Network, error) {
	if len(doc.AccessPoints) == 0 && len(doc.Clients) == 0 {
		var links []rtmac.Link
		for gi, group := range doc.Links {
			if group.Name != "" || group.From != "" || group.To != "" {
				return nil, nil, fmt.Errorf("scenario: link group %d is a named link, but the document declares no accessPoints or clients", gi)
			}
			if group.Count <= 0 {
				return nil, nil, fmt.Errorf("scenario: link group %d has count %d", gi, group.Count)
			}
			arr, err := buildArrivals(group.Arrivals)
			if err != nil {
				return nil, nil, fmt.Errorf("scenario: link group %d: %w", gi, err)
			}
			for i := 0; i < group.Count; i++ {
				links = append(links, rtmac.Link{
					SuccessProb:   group.SuccessProb,
					Arrivals:      arr,
					DeliveryRatio: group.DeliveryRatio,
					Required:      group.Required,
				})
			}
		}
		return links, nil, nil
	}
	name := doc.Name
	if name == "" {
		name = "scenario"
	}
	net := topology.New(name)
	for _, ap := range doc.AccessPoints {
		if err := net.AddAccessPoint(ap); err != nil {
			return nil, nil, err
		}
	}
	for _, c := range doc.Clients {
		if err := net.AddClient(c); err != nil {
			return nil, nil, err
		}
	}
	for _, l := range doc.Links {
		if l.Count != 0 {
			return nil, nil, fmt.Errorf("scenario: link %q has count %d: a document with nodes takes one named link per entry", l.Name, l.Count)
		}
		arr, err := buildArrivals(l.Arrivals)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: link %q: %w", l.Name, err)
		}
		if err := net.AddLink(topology.Link{
			Name:          l.Name,
			From:          l.From,
			To:            l.To,
			SuccessProb:   l.SuccessProb,
			Arrivals:      arr,
			DeliveryRatio: l.DeliveryRatio,
			Required:      l.Required,
		}); err != nil {
			return nil, nil, err
		}
	}
	links, err := net.Links()
	if err != nil {
		return nil, nil, err
	}
	return links, net, nil
}

func buildProfile(spec ProfileSpec) (rtmac.Profile, error) {
	switch spec.Preset {
	case "video":
		return rtmac.VideoProfile(), nil
	case "control":
		return rtmac.ControlProfile(), nil
	case "":
		name := spec.Name
		if name == "" {
			name = "custom"
		}
		return rtmac.CustomProfile(name, spec.PayloadBytes, spec.RateMbps,
			rtmac.Time(spec.DeadlineUs)*rtmac.Microsecond)
	default:
		return rtmac.Profile{}, fmt.Errorf("scenario: unknown profile preset %q", spec.Preset)
	}
}

func buildProtocol(spec ProtocolSpec) (rtmac.Protocol, error) {
	influence := func() (rtmac.InfluenceFunc, error) {
		switch spec.Influence {
		case "", "paperlog":
			return rtmac.PaperInfluence(), nil
		case "identity":
			return rtmac.IdentityInfluence(), nil
		case "log":
			return rtmac.LogInfluence(spec.Scale)
		default:
			return rtmac.InfluenceFunc{}, fmt.Errorf("scenario: unknown influence %q", spec.Influence)
		}
	}
	if spec.Pairs < 0 || (spec.Pairs > 1 && spec.Name != "dbdp") {
		return rtmac.Protocol{}, fmt.Errorf("scenario: %d swap pairs: only dbdp takes more than one", spec.Pairs)
	}
	switch spec.Name {
	case "dbdp":
		var opts []rtmac.DBDPOption
		if spec.Pairs > 1 {
			opts = append(opts, rtmac.WithSwapPairs(spec.Pairs))
		}
		if spec.Frozen {
			opts = append(opts, rtmac.WithFrozenPriorities())
		}
		if spec.Influence != "" || spec.R != 0 {
			f, err := influence()
			if err != nil {
				return rtmac.Protocol{}, err
			}
			r := spec.R
			if r == 0 {
				r = 10
			}
			opts = append(opts, rtmac.WithInfluence(f, r))
		}
		return rtmac.DBDP(opts...), nil
	case "ldf":
		return rtmac.LDF(), nil
	case "eldf":
		f, err := influence()
		if err != nil {
			return rtmac.Protocol{}, err
		}
		return rtmac.ELDF(f), nil
	case "fcsma":
		return rtmac.FCSMA(), nil
	case "framecsma":
		return rtmac.FrameCSMA(), nil
	case "tdma":
		return rtmac.TDMA(), nil
	case "dcf":
		return rtmac.DCF(), nil
	default:
		return rtmac.Protocol{}, fmt.Errorf("scenario: unknown protocol %q", spec.Name)
	}
}

func buildArrivals(spec ArrivalsSpec) (rtmac.Arrivals, error) {
	switch spec.Type {
	case "bernoulli":
		return rtmac.BernoulliArrivals(spec.Param)
	case "video":
		return rtmac.VideoArrivals(spec.Param)
	case "fixed":
		// A fractional count would truncate silently (0.78 → no traffic at
		// all), and a negative one is no arrival process.
		if spec.Param < 0 || spec.Param > math.MaxInt32 || spec.Param != math.Trunc(spec.Param) {
			return rtmac.Arrivals{}, fmt.Errorf("fixed arrivals need a whole, non-negative packet count, got %v", spec.Param)
		}
		return rtmac.FixedArrivals(int(spec.Param)), nil
	case "bursty":
		return rtmac.BurstyArrivals(spec.Param, spec.Lo, spec.Hi)
	case "binomial":
		return rtmac.BinomialArrivals(spec.N, spec.Param)
	default:
		return rtmac.Arrivals{}, fmt.Errorf("scenario: unknown arrival type %q", spec.Type)
	}
}
