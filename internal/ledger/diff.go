package ledger

import (
	"fmt"
	"io"
	"math"
	"sort"

	"rtmac/internal/stats"
)

// The regression sentinel: a statistical diff between two records (each
// possibly a merge of many runs). For every point key present in both, the
// headline metric is compared with Welch's unequal-variance t-test at the
// requested confidence, cross-checked against confidence-interval overlap;
// per-replication delivery-delay quantiles are compared by relative delta.
// A point counts as a regression only when the change is both statistically
// significant and in the point's worse direction — so a self-diff is always
// clean, and an improvement is reported but never fails the diff.

// DiffOptions tunes the sentinel.
type DiffOptions struct {
	// Confidence is the two-sided test level: 0.90, 0.95 or 0.99, the
	// levels the critical-value table holds (0 means 0.95).
	Confidence float64
	// RelThreshold is the fallback for points where a t-test is impossible
	// (fewer than two replications on either side, or zero variance): the
	// relative worsening that counts as a regression (default 0.10).
	RelThreshold float64
	// QuantileThreshold is the relative worsening of a delay quantile
	// (p50/p95/p99, mean across replications) that counts as a regression
	// (default 0.25).
	QuantileThreshold float64
}

func (o DiffOptions) fill() (DiffOptions, error) {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if _, ok := tTable[o.Confidence]; !ok {
		return o, fmt.Errorf("ledger: confidence %v not supported (want 0.90, 0.95 or 0.99)", o.Confidence)
	}
	if o.RelThreshold <= 0 {
		o.RelThreshold = 0.10
	}
	if o.QuantileThreshold <= 0 {
		o.QuantileThreshold = 0.25
	}
	return o, nil
}

// PointVerdict is the sentinel's finding for one matched point.
type PointVerdict struct {
	Figure string  `json:"figure"`
	Series string  `json:"series"`
	X      float64 `json:"x"`
	Metric string  `json:"metric"`
	Better string  `json:"better"`

	Old Summary `json:"old"`
	New Summary `json:"new"`

	// Delta is new mean − old mean; RelDelta is Delta normalized by the old
	// mean (0 when the old mean is 0).
	Delta    float64 `json:"delta"`
	RelDelta float64 `json:"rel_delta"`

	// T and DF are the Welch statistic and Welch–Satterthwaite degrees of
	// freedom; zero when the test was impossible.
	T  float64 `json:"t,omitempty"`
	DF float64 `json:"df,omitempty"`
	// Significant reports whether the difference cleared the test (or the
	// fallback threshold); CIOverlap whether the two 95% intervals overlap.
	Significant bool `json:"significant"`
	CIOverlap   bool `json:"ci_overlap"`

	// Regression is a significant change in the worse direction; Improved is
	// a significant change in the better direction.
	Regression bool `json:"regression"`
	Improved   bool `json:"improved"`
	// DelayRegression flags a delay-quantile worsening past the threshold;
	// Why explains the verdict in one line.
	DelayRegression bool   `json:"delay_regression,omitempty"`
	Why             string `json:"why,omitempty"`
}

// DiffReport is the full sentinel output.
type DiffReport struct {
	Points []PointVerdict `json:"points"`
	// MissingOld / MissingNew list point keys present on only one side;
	// coverage changes are reported, not failed.
	MissingOld []string `json:"missing_old,omitempty"`
	MissingNew []string `json:"missing_new,omitempty"`

	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
}

// HasRegression reports whether the sentinel should fail (exit non-zero).
func (r *DiffReport) HasRegression() bool { return r.Regressions > 0 }

// Diff runs the sentinel comparing old against new.
func Diff(oldRec, newRec *Record, opts DiffOptions) (*DiffReport, error) {
	opts, err := opts.fill()
	if err != nil {
		return nil, err
	}
	if err := oldRec.Validate(); err != nil {
		return nil, fmt.Errorf("ledger: diff old: %w", err)
	}
	if err := newRec.Validate(); err != nil {
		return nil, fmt.Errorf("ledger: diff new: %w", err)
	}
	oldBy := make(map[string]Point, len(oldRec.Points))
	for _, p := range oldRec.Points {
		oldBy[p.Key()] = p
	}
	newBy := make(map[string]Point, len(newRec.Points))
	for _, p := range newRec.Points {
		newBy[p.Key()] = p
	}
	rep := &DiffReport{}
	for key := range oldBy {
		if _, ok := newBy[key]; !ok {
			rep.MissingNew = append(rep.MissingNew, key)
		}
	}
	keys := make([]string, 0, len(newBy))
	for key := range newBy {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		np := newBy[key]
		op, ok := oldBy[key]
		if !ok {
			rep.MissingOld = append(rep.MissingOld, key)
			continue
		}
		if op.Better != np.Better {
			return nil, fmt.Errorf("ledger: point %s compares %q against %q direction", key, op.Better, np.Better)
		}
		v, err := comparePoint(op, np, opts)
		if err != nil {
			return nil, fmt.Errorf("ledger: point %s: %w", key, err)
		}
		rep.Points = append(rep.Points, v)
		if v.Regression || v.DelayRegression {
			rep.Regressions++
		}
		if v.Improved {
			rep.Improvements++
		}
	}
	sort.Strings(rep.MissingOld)
	sort.Strings(rep.MissingNew)
	return rep, nil
}

// comparePoint renders one verdict.
func comparePoint(op, np Point, opts DiffOptions) (PointVerdict, error) {
	oldAgg, err := stats.PointFromState(op.Agg)
	if err != nil {
		return PointVerdict{}, err
	}
	newAgg, err := stats.PointFromState(np.Agg)
	if err != nil {
		return PointVerdict{}, err
	}
	oldSum, err := Summarize(op.Agg)
	if err != nil {
		return PointVerdict{}, err
	}
	newSum, err := Summarize(np.Agg)
	if err != nil {
		return PointVerdict{}, err
	}
	v := PointVerdict{
		Figure: np.Figure, Series: np.Series, X: np.X, Metric: np.Metric, Better: np.Better,
		Old: oldSum, New: newSum,
		Delta: newSum.Mean - oldSum.Mean,
	}
	if oldSum.Mean != 0 {
		v.RelDelta = v.Delta / math.Abs(oldSum.Mean)
	}
	v.CIOverlap = intervalsOverlap(oldSum, newSum)

	worse := v.Delta > 0
	if np.Better == BetterHigher {
		worse = v.Delta < 0
	}

	oldAcc, newAcc := valueAccumulator(oldAgg), valueAccumulator(newAgg)
	welchOK := oldAcc.Count() >= 2 && newAcc.Count() >= 2 &&
		(oldAcc.Variance() > 0 || newAcc.Variance() > 0)
	switch {
	case welchOK:
		v.T, v.DF = welch(oldAcc, newAcc)
		v.Significant = math.Abs(v.T) > tCritical(v.DF, opts.Confidence)
		if v.Significant && worse {
			v.Regression = true
			v.Why = fmt.Sprintf("Welch t=%.2f (df %.1f) beyond the %.0f%% critical value, worse direction",
				v.T, v.DF, opts.Confidence*100)
		}
	case v.Delta == 0:
		// Identical means with no testable spread: unchanged.
	default:
		// Too few replications (or zero spread) for a t-test: fall back to a
		// relative-delta threshold.
		v.Significant = math.Abs(v.RelDelta) > opts.RelThreshold ||
			(oldSum.Mean == 0 && v.Delta != 0 && math.Abs(v.Delta) > 1e-12)
		if v.Significant && worse {
			v.Regression = true
			v.Why = fmt.Sprintf("relative delta %+.1f%% beyond %.0f%% threshold (too few replications for a t-test)",
				v.RelDelta*100, opts.RelThreshold*100)
		}
	}
	if v.Significant && !worse && v.Delta != 0 {
		v.Improved = true
	}

	// Delay-quantile deltas: lower is always better for delays.
	if oldSum.DelayN > 0 && newSum.DelayN > 0 {
		type q struct {
			name     string
			old, new float64
		}
		for _, d := range []q{
			{"p50", oldSum.DelayP50, newSum.DelayP50},
			{"p95", oldSum.DelayP95, newSum.DelayP95},
			{"p99", oldSum.DelayP99, newSum.DelayP99},
		} {
			if d.old <= 0 {
				continue
			}
			if rel := (d.new - d.old) / d.old; rel > opts.QuantileThreshold {
				v.DelayRegression = true
				if v.Why != "" {
					v.Why += "; "
				}
				v.Why += fmt.Sprintf("delay %s grew %+.0f%% (%.0f -> %.0f us)", d.name, rel*100, d.old, d.new)
			}
		}
	}
	return v, nil
}

// valueAccumulator folds the headline values of an aggregate's replications
// into a Welford accumulator.
func valueAccumulator(agg *stats.PointAggregate) *stats.Accumulator {
	var acc stats.Accumulator
	for _, r := range agg.State().Reps {
		acc.Add(r.Value)
	}
	return &acc
}

// intervalsOverlap reports whether the two summaries' 95% confidence
// intervals intersect.
func intervalsOverlap(a, b Summary) bool {
	aLo, aHi := a.Mean-a.CIHalf, a.Mean+a.CIHalf
	bLo, bHi := b.Mean-b.CIHalf, b.Mean+b.CIHalf
	return aLo <= bHi && bLo <= aHi
}

// welch computes the Welch t statistic and Welch–Satterthwaite degrees of
// freedom for two independent samples.
func welch(a, b *stats.Accumulator) (t, df float64) {
	na, nb := float64(a.Count()), float64(b.Count())
	va, vb := a.Variance()/na, b.Variance()/nb
	se := math.Sqrt(va + vb)
	if se == 0 {
		return 0, na + nb - 2
	}
	t = (b.Mean() - a.Mean()) / se
	den := va*va/(na-1) + vb*vb/(nb-1)
	if den == 0 {
		return t, na + nb - 2
	}
	df = (va + vb) * (va + vb) / den
	return t, df
}

// tTable holds two-sided critical values of Student's t at selected degrees
// of freedom, per confidence level; tCritical interpolates between rows and
// clamps beyond the ends (df → ∞ is the normal quantile).
var tTable = map[float64][]struct{ df, t float64 }{
	0.90: {
		{1, 6.314}, {2, 2.920}, {3, 2.353}, {4, 2.132}, {5, 2.015},
		{6, 1.943}, {7, 1.895}, {8, 1.860}, {9, 1.833}, {10, 1.812},
		{12, 1.782}, {14, 1.761}, {16, 1.746}, {18, 1.734}, {20, 1.725},
		{25, 1.708}, {30, 1.697}, {40, 1.684}, {60, 1.671}, {120, 1.658},
		{math.Inf(1), 1.645},
	},
	0.95: {
		{1, 12.706}, {2, 4.303}, {3, 3.182}, {4, 2.776}, {5, 2.571},
		{6, 2.447}, {7, 2.365}, {8, 2.306}, {9, 2.262}, {10, 2.228},
		{12, 2.179}, {14, 2.145}, {16, 2.120}, {18, 2.101}, {20, 2.086},
		{25, 2.060}, {30, 2.042}, {40, 2.021}, {60, 2.000}, {120, 1.980},
		{math.Inf(1), 1.960},
	},
	0.99: {
		{1, 63.657}, {2, 9.925}, {3, 5.841}, {4, 4.604}, {5, 4.032},
		{6, 3.707}, {7, 3.499}, {8, 3.355}, {9, 3.250}, {10, 3.169},
		{12, 3.055}, {14, 2.977}, {16, 2.921}, {18, 2.878}, {20, 2.845},
		{25, 2.787}, {30, 2.750}, {40, 2.704}, {60, 2.660}, {120, 2.617},
		{math.Inf(1), 2.576},
	},
}

// tCritical returns the two-sided critical value at the given (possibly
// fractional) degrees of freedom; confidence must be a tabulated level.
func tCritical(df, confidence float64) float64 {
	rows := tTable[confidence]
	if df <= rows[0].df {
		return rows[0].t
	}
	for i := 1; i < len(rows); i++ {
		if df <= rows[i].df {
			lo, hi := rows[i-1], rows[i]
			if math.IsInf(hi.df, 1) {
				// Interpolate in 1/df toward the normal quantile.
				frac := lo.df / df
				return hi.t + (lo.t-hi.t)*frac
			}
			frac := (df - lo.df) / (hi.df - lo.df)
			return lo.t + (hi.t-lo.t)*frac
		}
	}
	return rows[len(rows)-1].t
}

// WriteText renders the report as an aligned human-readable table.
func (r *DiffReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-28s %-12s %12s %12s %9s  %s\n",
		"point", "metric", "old mean", "new mean", "delta", "verdict")
	for _, v := range r.Points {
		verdict := "ok"
		switch {
		case v.Regression || v.DelayRegression:
			verdict = "REGRESSION: " + v.Why
		case v.Improved:
			verdict = "improved"
		}
		fmt.Fprintf(w, "%-28s %-12s %12.5g %12.5g %+8.1f%%  %s\n",
			fmt.Sprintf("%s/%s x=%g", v.Figure, v.Series, v.X),
			v.Metric, v.Old.Mean, v.New.Mean, v.RelDelta*100, verdict)
	}
	for _, key := range r.MissingOld {
		fmt.Fprintf(w, "%-28s only in new record\n", key)
	}
	for _, key := range r.MissingNew {
		fmt.Fprintf(w, "%-28s only in old record\n", key)
	}
	fmt.Fprintf(w, "%d regressions, %d improvements across %d matched points\n",
		r.Regressions, r.Improvements, len(r.Points))
}
