package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// histState tracks per-family histogram consistency while validating.
type histState struct {
	lastLe  float64
	lastCum uint64
	infCum  uint64
	seenInf bool
	buckets int
}

// ValidatePrometheus parses a Prometheus text-exposition (0.0.4) payload and
// returns the number of sample lines. It enforces what this repository's
// exporter promises: valid metric and label syntax, a TYPE declaration before
// every sample family, parseable values (including +Inf/-Inf/NaN), and
// internally consistent histograms (strictly increasing bucket bounds,
// non-decreasing cumulative counts, _count equal to the +Inf bucket).
// rtmacsim's serve test and the concurrent-scrape tests both run scrapes
// through it.
func ValidatePrometheus(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	types := make(map[string]string)
	hists := make(map[string]*histState)
	samples := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return samples, fmt.Errorf("telemetry: line %d: malformed TYPE line %q", lineNo, line)
			}
			name, kind := fields[2], fields[3]
			if !validName(name) {
				return samples, fmt.Errorf("telemetry: line %d: invalid metric name %q", lineNo, name)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return samples, fmt.Errorf("telemetry: line %d: unknown metric type %q", lineNo, kind)
			}
			if _, dup := types[name]; dup {
				return samples, fmt.Errorf("telemetry: line %d: duplicate TYPE for %q", lineNo, name)
			}
			types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or free comment
		}
		name, labels, value, err := splitSample(line)
		if err != nil {
			return samples, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		if !validName(name) {
			return samples, fmt.Errorf("telemetry: line %d: invalid metric name %q", lineNo, name)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return samples, fmt.Errorf("telemetry: line %d: unparseable value %q", lineNo, value)
		}
		family, suffix := sampleFamily(name, types)
		if family == "" {
			return samples, fmt.Errorf("telemetry: line %d: sample %q has no TYPE declaration", lineNo, name)
		}
		if types[family] == "histogram" {
			if err := checkHistogramSample(hists, family, suffix, labels, v); err != nil {
				return samples, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
			}
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, fmt.Errorf("telemetry: %w", err)
	}
	for family, h := range hists {
		if !h.seenInf {
			return samples, fmt.Errorf("telemetry: histogram %s has no +Inf bucket", family)
		}
	}
	if samples == 0 {
		return 0, fmt.Errorf("telemetry: no samples in exposition payload")
	}
	return samples, nil
}

// splitSample splits one sample line into name, raw label body and value
// text, tolerating an optional trailing timestamp.
func splitSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 && (strings.IndexByte(line, ' ') == -1 || i < strings.IndexByte(line, ' ')) {
		j := strings.IndexByte(line[i:], '}')
		if j < 0 {
			return "", "", "", fmt.Errorf("unterminated label set in %q", line)
		}
		name = line[:i]
		labels = line[i+1 : i+j]
		rest = line[i+j+1:]
		if err := checkLabels(labels); err != nil {
			return "", "", "", err
		}
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return "", "", "", fmt.Errorf("sample %q has no value", line)
		}
		name = fields[0]
		rest = strings.TrimPrefix(line, name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", "", fmt.Errorf("sample %q has %d value fields, want 1 or 2", line, len(fields))
	}
	return name, labels, fields[0], nil
}

// checkLabels validates a raw label body: comma-separated key="value" pairs.
func checkLabels(body string) error {
	if body == "" {
		return nil
	}
	for _, pair := range strings.Split(body, ",") {
		eq := strings.IndexByte(pair, '=')
		if eq <= 0 {
			return fmt.Errorf("malformed label pair %q", pair)
		}
		key, val := pair[:eq], pair[eq+1:]
		if !validName(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
			return fmt.Errorf("unquoted label value %q", val)
		}
	}
	return nil
}

// sampleFamily maps a sample name onto its TYPE-declared family, resolving
// the _bucket/_sum/_count suffixes of histogram and summary samples.
func sampleFamily(name string, types map[string]string) (family, suffix string) {
	if _, ok := types[name]; ok {
		return name, ""
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		if kind, ok := types[base]; ok && (kind == "histogram" || kind == "summary") {
			return base, suf
		}
	}
	return "", ""
}

// checkHistogramSample enforces bucket monotonicity and _count consistency
// for one histogram family, assuming the exporter's in-order rendering.
func checkHistogramSample(hists map[string]*histState, family, suffix, labels string, v float64) error {
	h := hists[family]
	if h == nil {
		h = &histState{}
		hists[family] = h
	}
	switch suffix {
	case "_bucket":
		le, err := bucketBound(labels)
		if err != nil {
			return fmt.Errorf("histogram %s: %w", family, err)
		}
		if v < 0 || v != float64(uint64(v)) {
			return fmt.Errorf("histogram %s: non-integral bucket count %v", family, v)
		}
		cum := uint64(v)
		if h.buckets > 0 {
			if h.seenInf {
				return fmt.Errorf("histogram %s: bucket after +Inf", family)
			}
			if le <= h.lastLe {
				return fmt.Errorf("histogram %s: bucket bounds not increasing (%v after %v)", family, le, h.lastLe)
			}
			if cum < h.lastCum {
				return fmt.Errorf("histogram %s: cumulative count decreased (%d after %d)", family, cum, h.lastCum)
			}
		}
		h.buckets++
		h.lastLe = le
		h.lastCum = cum
		if isInf(labels) {
			h.seenInf = true
			h.infCum = cum
		}
	case "_count":
		if h.seenInf && v != float64(h.infCum) {
			return fmt.Errorf("histogram %s: _count %v != +Inf bucket %d", family, v, h.infCum)
		}
	}
	return nil
}

// bucketBound extracts the le bound from a bucket's label body.
func bucketBound(labels string) (float64, error) {
	for _, pair := range strings.Split(labels, ",") {
		if !strings.HasPrefix(pair, "le=") {
			continue
		}
		raw := strings.Trim(pair[len("le="):], `"`)
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return 0, fmt.Errorf("unparseable le bound %q", raw)
		}
		return v, nil
	}
	return 0, fmt.Errorf("bucket sample without le label {%s}", labels)
}

func isInf(labels string) bool {
	return strings.Contains(labels, `le="+Inf"`)
}
