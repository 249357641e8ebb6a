package ledger

// The /api/compare document: two ledger records resolved by reference and
// run through the regression sentinel, wrapped with enough run identity for
// the dashboard's compare page to label both sides. Like History, the obs
// package treats it as opaque JSON.

// Compare is the full document.
type Compare struct {
	// Enabled reports whether a ledger is attached at all.
	Enabled bool `json:"enabled"`
	// Dir is the ledger directory being compared within.
	Dir string `json:"dir,omitempty"`
	// Error carries a resolution or validation failure (unknown reference,
	// ambiguous prefix, mismatched directions) instead of failing the HTTP
	// request: the page renders it next to the pre-filled inputs so the user
	// can correct the reference.
	Error string       `json:"error,omitempty"`
	A     *CompareSide `json:"a,omitempty"`
	B     *CompareSide `json:"b,omitempty"`
	// Report is the sentinel's verdict table, present when both sides loaded.
	Report *DiffReport `json:"report,omitempty"`
}

// CompareSide identifies one side of the comparison.
type CompareSide struct {
	// Ref is the reference as given (e.g. "latest~1", an ID prefix).
	Ref string `json:"ref"`
	// Run is the resolved record's history row.
	Run HistoryRun `json:"run"`
}

// CompareDoc is the /api/compare document the observability plane serves:
// BuildCompare under the default diff options.
func (s *Store) CompareDoc(refA, refB string) *Compare {
	return BuildCompare(s, refA, refB, DiffOptions{})
}

// BuildCompare resolves refA and refB against the store and diffs the two
// records. Every failure — an unknown or ambiguous reference, an unreadable
// record, mismatched directions — is reported inside the document
// (Compare.Error), so the page can render it next to the inputs.
func BuildCompare(s *Store, refA, refB string, opts DiffOptions) *Compare {
	c := &Compare{Enabled: true, Dir: s.Dir()}
	side := func(ref string) (*CompareSide, *Record) {
		id, err := s.Resolve(ref)
		if err != nil {
			c.Error = err.Error()
			return nil, nil
		}
		rec, err := s.Get(id)
		if err != nil {
			c.Error = err.Error()
			return nil, nil
		}
		return &CompareSide{Ref: ref, Run: historyRow(id, rec)}, rec
	}
	sideA, recA := side(refA)
	if sideA == nil {
		return c
	}
	sideB, recB := side(refB)
	if sideB == nil {
		return c
	}
	c.A, c.B = sideA, sideB
	rep, err := Diff(recA, recB, opts)
	if err != nil {
		c.Error = err.Error()
		return c
	}
	c.Report = rep
	return c
}

// historyRow reduces one record to its history-table row, shared between
// BuildHistory and BuildCompare so both pages label runs identically.
func historyRow(id string, rec *Record) HistoryRun {
	short := id
	if len(short) > 12 {
		short = short[:12]
	}
	run := HistoryRun{
		ID: id, ShortID: short,
		Kind: rec.Kind, Scenario: rec.Scenario,
		Seeds: len(rec.Seeds), Points: len(rec.Points),
	}
	if rec.Manifest != nil {
		run.Tool = rec.Manifest.Tool
		run.Commit = shortCommit(rec.Manifest.VCSRevision)
		run.Dirty = rec.Manifest.VCSModified
	}
	return run
}
