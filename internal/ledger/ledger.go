// Package ledger is a durable, append-only, content-addressed store of run
// records. Each record captures one run's provenance (the telemetry manifest:
// seed, git commit, go version, host), its final per-point summaries, and —
// the part that makes records more than screenshots — the seed-tagged
// replication multiset behind each point (stats.PointState). Because that
// multiset is the point's whole statistical state, any two records can be
// merged after the fact exactly as if their seeds had run in one process:
// separately recorded seed sets (`figures -seedlist`, one `rtmacsim -ledger`
// run per seed) combine into one aggregate, and `ledgerctl diff` can make
// statistically honest cross-commit statements.
//
// On-disk layout under one ledger directory:
//
//	records/<sha256>.json  — canonical (compact) JSON, named by content hash
//	index.jsonl            — one append-only line per Append, newest last
//
// Records are immutable: appending the same record twice is a no-op that
// returns the same ID, nothing in the package rewrites an existing file, and
// Get refuses a record whose bytes no longer hash to its name.
package ledger

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"rtmac/internal/stats"
	"rtmac/internal/telemetry"
)

// RecordSchema is the current record schema version; Load rejects records
// from a future schema rather than misreading them.
const RecordSchema = 1

// Better-direction values for Point.Better.
const (
	BetterLower  = "lower"
	BetterHigher = "higher"
)

// Record is one ledger entry: a run (or a merge of runs) reduced to points
// with mergeable statistical partials.
type Record struct {
	// Schema is the record layout version (RecordSchema).
	Schema int `json:"schema"`
	// Kind classifies the producer: "figures" (experiment sweeps), "run"
	// (one rtmacsim simulation), or "merged" (output of Merge).
	Kind string `json:"kind"`
	// Scenario is a human-readable workload description.
	Scenario string `json:"scenario,omitempty"`
	// Seeds lists every replication seed contributing to the record, sorted.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Manifest is the producing run's provenance (nil for merged records,
	// whose provenance is the Merged source list).
	Manifest *telemetry.Manifest `json:"manifest,omitempty"`
	// Merged lists the source record IDs when Kind == "merged".
	Merged []string `json:"merged,omitempty"`
	// Points are the record's per-point partials and summaries.
	Points []Point `json:"points"`
}

// Point is one curve point: a (figure, series, x, metric) key, the
// replication-multiset partial, and a display summary derived from it.
type Point struct {
	// Figure groups points ("fig3", "run").
	Figure string `json:"figure"`
	// Series labels the curve within the figure (usually the protocol).
	Series string `json:"series"`
	// X is the sweep coordinate (arrival rate, delivery ratio, link index).
	X float64 `json:"x"`
	// Metric names the headline quantity ("deficiency", "delivery_ratio",
	// "ns_per_interval").
	Metric string `json:"metric"`
	// Better is the improvement direction: BetterLower or BetterHigher.
	Better string `json:"better"`
	// Agg is the mergeable partial: the seed-tagged replication multiset.
	Agg stats.PointState `json:"agg"`
	// Summary is the display reduction of Agg at 95% confidence.
	Summary Summary `json:"summary"`
}

// Summary is the display snapshot of one point, recomputed from the partial
// whenever records merge.
type Summary struct {
	N        int64   `json:"n"`
	Mean     float64 `json:"mean"`
	StdErr   float64 `json:"stderr"`
	CIHalf   float64 `json:"ci95_half"`
	DelayP50 float64 `json:"delay_p50,omitempty"`
	DelayP95 float64 `json:"delay_p95,omitempty"`
	DelayP99 float64 `json:"delay_p99,omitempty"`
	DelayN   int64   `json:"delay_count,omitempty"`
}

// summaryLevel is the confidence level point summaries are computed at.
const summaryLevel = 0.95

// Summarize reduces a point partial to its display summary.
func Summarize(st stats.PointState) (Summary, error) {
	agg, err := stats.PointFromState(st)
	if err != nil {
		return Summary{}, err
	}
	ps := agg.Summary(summaryLevel)
	return Summary{
		N:        ps.N,
		Mean:     ps.Mean,
		StdErr:   ps.StdErr,
		CIHalf:   ps.CIHalf,
		DelayP50: ps.DelayP50,
		DelayP95: ps.DelayP95,
		DelayP99: ps.DelayP99,
		DelayN:   ps.DelayCount,
	}, nil
}

// Key identifies a point for matching across records.
func (p Point) Key() string {
	return fmt.Sprintf("%s|%s|%g|%s", p.Figure, p.Series, p.X, p.Metric)
}

// Validate checks a record's structural invariants: schema, point
// directions, and that every partial is restorable.
func (r *Record) Validate() error {
	if r.Schema != RecordSchema {
		return fmt.Errorf("ledger: unsupported record schema %d (have %d)", r.Schema, RecordSchema)
	}
	if r.Kind == "" {
		return fmt.Errorf("ledger: record without kind")
	}
	if len(r.Points) == 0 {
		return fmt.Errorf("ledger: record without points")
	}
	seen := make(map[string]bool, len(r.Points))
	for i, p := range r.Points {
		if p.Figure == "" || p.Metric == "" {
			return fmt.Errorf("ledger: point %d missing figure or metric", i)
		}
		if p.Better != BetterLower && p.Better != BetterHigher {
			return fmt.Errorf("ledger: point %d direction %q (want %q or %q)",
				i, p.Better, BetterLower, BetterHigher)
		}
		if key := p.Key(); seen[key] {
			return fmt.Errorf("ledger: duplicate point %s", key)
		} else {
			seen[key] = true
		}
		if _, err := stats.PointFromState(p.Agg); err != nil {
			return fmt.Errorf("ledger: point %s: %w", p.Key(), err)
		}
	}
	return nil
}

// normalize puts the record in canonical form: points sorted by key and the
// seed set sorted and deduplicated, so equal content always hashes equally.
func (r *Record) normalize() {
	sort.Slice(r.Points, func(i, j int) bool {
		a, b := r.Points[i], r.Points[j]
		if a.Figure != b.Figure {
			return a.Figure < b.Figure
		}
		if a.Series != b.Series {
			return a.Series < b.Series
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Metric < b.Metric
	})
	if len(r.Seeds) > 1 {
		sort.Slice(r.Seeds, func(i, j int) bool { return r.Seeds[i] < r.Seeds[j] })
		out := r.Seeds[:1]
		for _, s := range r.Seeds[1:] {
			if s != out[len(out)-1] {
				out = append(out, s)
			}
		}
		r.Seeds = out
	}
}

// Encode renders the record's canonical bytes — compact JSON of the
// normalized record. The content hash (and so the record ID) is the SHA-256
// of exactly these bytes.
func (r *Record) Encode() ([]byte, error) {
	r.normalize()
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// ID returns the record's content address.
func (r *Record) ID() (string, error) {
	data, err := r.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// DecodeRecord parses and validates one record's canonical bytes.
func DecodeRecord(data []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// IndexEntry is one line of the append-only ledger index — enough to list
// and filter without opening every record.
type IndexEntry struct {
	ID       string    `json:"id"`
	Appended time.Time `json:"appended"`
	Kind     string    `json:"kind"`
	Tool     string    `json:"tool,omitempty"`
	Scenario string    `json:"scenario,omitempty"`
	Commit   string    `json:"commit,omitempty"`
	Dirty    bool      `json:"dirty,omitempty"`
	Seeds    int       `json:"seeds,omitempty"`
	Points   int       `json:"points"`
}

// Store is one ledger directory.
type Store struct {
	dir string
}

// Open returns the store in dir without touching the file system: a
// missing directory reads as an empty ledger, and Append creates it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ledger: empty directory")
	}
	return &Store{dir: dir}, nil
}

// Dir returns the ledger directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) recordPath(id string) string {
	return filepath.Join(s.dir, "records", id+".json")
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.jsonl") }

// Append stores the record and appends an index line, returning the content
// ID, creating the ledger directory if needed. Appending a record that is
// already present is a no-op returning the same ID — the store is
// idempotent, never mutating.
func (s *Store) Append(r *Record) (string, error) {
	data, err := r.Encode()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Join(s.dir, "records"), 0o755); err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	sum := sha256.Sum256(data)
	id := hex.EncodeToString(sum[:])
	path := s.recordPath(id)
	if _, err := os.Stat(path); err == nil {
		return id, nil // content-addressed: already present
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("ledger: %w", err)
	}
	entry := IndexEntry{
		ID:       id,
		Appended: time.Now().UTC(),
		Kind:     r.Kind,
		Scenario: r.Scenario,
		Seeds:    len(r.Seeds),
		Points:   len(r.Points),
	}
	if r.Manifest != nil {
		entry.Tool = r.Manifest.Tool
		entry.Commit = r.Manifest.VCSRevision
		entry.Dirty = r.Manifest.VCSModified
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	f, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return "", fmt.Errorf("ledger: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	return id, nil
}

// List returns the index entries in append order (oldest first). A missing
// index means an empty ledger. Malformed lines (e.g. a torn final append)
// are skipped rather than poisoning the whole listing.
func (s *Store) List() ([]IndexEntry, error) {
	f, err := os.Open(s.indexPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	var out []IndexEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e IndexEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return out, nil
}

// Resolve turns a reference into a full record ID. Accepted forms: a full
// ID, a unique ID prefix (at least 4 hex chars), or "latest" (optionally
// "latest~N" for the N-th newest, N written in decimal digits only).
func (s *Store) Resolve(ref string) (string, error) {
	if ref == "latest" || strings.HasPrefix(ref, "latest~") {
		back := 0
		if n, ok := strings.CutPrefix(ref, "latest~"); ok {
			var err error
			if back, err = strconv.Atoi(n); err != nil || strings.Trim(n, "0123456789") != "" {
				return "", fmt.Errorf("ledger: bad reference %q", ref)
			}
		}
		entries, err := s.List()
		if err != nil {
			return "", err
		}
		if len(entries) <= back {
			return "", fmt.Errorf("ledger: %q asks for %d records back, ledger has %d", ref, back, len(entries))
		}
		return entries[len(entries)-1-back].ID, nil
	}
	if len(ref) < 4 {
		return "", fmt.Errorf("ledger: reference %q too short (want at least 4 hex chars, or \"latest\")", ref)
	}
	names, err := filepath.Glob(s.recordPath(ref + "*"))
	if err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	var matches []string
	for _, name := range names {
		id := strings.TrimSuffix(filepath.Base(name), ".json")
		if strings.HasPrefix(id, ref) {
			matches = append(matches, id)
		}
	}
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("ledger: no record matches %q", ref)
	case 1:
		return matches[0], nil
	default:
		return "", fmt.Errorf("ledger: reference %q is ambiguous (%d matches)", ref, len(matches))
	}
}

// Get loads one record by reference (see Resolve), refusing a file whose
// bytes no longer hash to its content address.
func (s *Store) Get(ref string) (*Record, error) {
	id, err := s.Resolve(ref)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.recordPath(id))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != id {
		return nil, fmt.Errorf("ledger: record %s: content does not match its address", id)
	}
	rec, err := DecodeRecord(data)
	if err != nil {
		return nil, fmt.Errorf("ledger: record %s: %w", id, err)
	}
	return rec, nil
}
