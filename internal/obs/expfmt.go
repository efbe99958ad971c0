package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4) through WriteExposition: families
// in registration order, children sorted by label values. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteExposition(w, r.exposition())
}

// WriteExposition renders families in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE comments, then one line per
// sample in the order given, with histogram buckets cumulative under
// the canonical _bucket/_sum/_count suffixes. A registry's labels keep
// their declared order; other families' labels are sorted by name.
// It is the one text writer: a registry's /metrics and obsd's
// /cluster/metrics both render through it.
func WriteExposition(w io.Writer, fams []ExpositionFamily) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, m := range f.Metrics {
			names := f.labelNames
			if names == nil {
				names = sortedNames(m.Labels)
			}
			labels := formatLabels(names, m.Labels, "", "")
			switch {
			case m.Histogram != nil:
				for _, b := range m.Histogram.Buckets {
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.Name, formatLabels(names, m.Labels, "le", b.Label), b.Count)
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.Name, labels, formatFloat(m.Histogram.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.Name, labels, m.Histogram.Count)
			case m.Value != nil && m.count:
				fmt.Fprintf(bw, "%s%s %d\n", f.Name, labels, int64(*m.Value))
			case m.Value != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.Name, labels, formatFloat(*m.Value))
			}
		}
	}
	return bw.Flush()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// sortedNames returns the label names sorted.
func sortedNames(labels map[string]string) []string {
	names := make([]string, 0, len(labels))
	for n := range labels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// formatLabels renders {k="v",…} in the order of names, then one extra
// pair when extraK is set (histogram le=), or "" when there are no
// labels at all.
func formatLabels(names []string, labels map[string]string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[n]))
		b.WriteString(`"`)
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// ExpositionMetric and ExpositionFamily shape the JSON exposition —
// exported so scrapers (obsd) can decode /metrics.json without
// re-declaring the document.
type ExpositionMetric struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
	// count marks a Counter's value, which the text format writes as
	// the integer it is rather than as a float.
	count bool
}

type ExpositionFamily struct {
	Name    string             `json:"name"`
	Kind    string             `json:"kind"`
	Help    string             `json:"help,omitempty"`
	Metrics []ExpositionMetric `json:"metrics"`
	// labelNames is a registry family's declared label order, which
	// its text exposition keeps.
	labelNames []string
}

// ParseJSONExposition decodes a /metrics.json document. Histogram
// bucket bounds (which marshal only as their "le" labels) are
// re-parsed into LE so merged rollups and quantiles work on scraped
// snapshots.
func ParseJSONExposition(r io.Reader) ([]ExpositionFamily, error) {
	var doc struct {
		Families []ExpositionFamily `json:"families"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: decoding exposition: %w", err)
	}
	for _, f := range doc.Families {
		for _, m := range f.Metrics {
			if m.Histogram == nil {
				continue
			}
			for i := range m.Histogram.Buckets {
				b := &m.Histogram.Buckets[i]
				if b.Label == "+Inf" {
					b.LE = math.Inf(1)
					continue
				}
				le, err := strconv.ParseFloat(b.Label, 64)
				if err != nil {
					return nil, fmt.Errorf("obs: family %s: bad bucket bound %q", f.Name, b.Label)
				}
				b.LE = le
			}
		}
	}
	return doc.Families, nil
}

// WriteJSON renders the registry as a JSON document mirroring the text
// exposition: {"families":[{name, kind, help, metrics:[…]}]}. A nil
// registry writes an empty family list.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Families []ExpositionFamily `json:"families"`
	}{r.exposition()})
}

// exposition snapshots the registry's families in registration order,
// children sorted by label values: what both exposition formats render.
func (r *Registry) exposition() []ExpositionFamily {
	fams := []ExpositionFamily{}
	for _, f := range r.snapshotFamilies() {
		jf := ExpositionFamily{Name: f.name, Kind: f.kind.String(), Help: f.help, Metrics: []ExpositionMetric{}, labelNames: f.labelNames}
		for _, c := range f.sortedChildren() {
			m := ExpositionMetric{}
			if len(f.labelNames) > 0 {
				m.Labels = make(map[string]string, len(f.labelNames))
				for i, n := range f.labelNames {
					m.Labels[n] = c.labelValues[i]
				}
			}
			switch {
			case c.hist != nil:
				snap := c.hist.Snapshot()
				m.Histogram = &snap
			case c.fn != nil:
				v := c.fn()
				m.Value = &v
			case c.counter != nil:
				v := float64(c.counter.Value())
				m.Value, m.count = &v, true
			case c.gauge != nil:
				v := c.gauge.Value()
				m.Value = &v
			}
			jf.Metrics = append(jf.Metrics, m)
		}
		fams = append(fams, jf)
	}
	return fams
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidateExposition parses a Prometheus text exposition and returns
// an error naming the first malformed line. It is the check behind
// `make obs-smoke` and the package's own round-trip tests: metric and
// label names must be legal, label values must be properly quoted and
// escaped, sample values must parse as floats, and # TYPE comments
// must declare a known type at most once per family.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	typed := map[string]bool{}
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, typed); err != nil {
				return fmt.Errorf("line %d: %w", n, err)
			}
			continue
		}
		if err := validateSample(line); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading exposition: %w", err)
	}
	return nil
}

func validateComment(line string, typed map[string]bool) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil // bare comment, allowed
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !metricNameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
	case "TYPE":
		if len(fields) != 4 || !metricNameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if typed[fields[2]] {
			return fmt.Errorf("duplicate TYPE for %q", fields[2])
		}
		typed[fields[2]] = true
	}
	return nil
}

func validateSample(line string) error {
	rest := line
	// Metric name runs up to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return fmt.Errorf("sample %q has no value", line)
	}
	name := rest[:end]
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("bad metric name %q", name)
	}
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		after, err := validateLabels(rest)
		if err != nil {
			return fmt.Errorf("sample %q: %w", line, err)
		}
		rest = after
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("sample %q: want value [timestamp], got %q", line, rest)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("sample %q: bad value %q", line, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("sample %q: bad timestamp %q", line, fields[1])
		}
	}
	return nil
}

// validateLabels consumes a {k="v",…} block and returns what follows.
func validateLabels(s string) (rest string, err error) {
	i := 1 // past '{'
	for {
		// Label name.
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j == len(s) {
			return "", fmt.Errorf("unterminated label block")
		}
		if !labelNameRe.MatchString(s[i:j]) {
			return "", fmt.Errorf("bad label name %q", s[i:j])
		}
		// Quoted value with escapes.
		i = j + 1
		if i >= len(s) || s[i] != '"' {
			return "", fmt.Errorf("label value not quoted")
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return "", fmt.Errorf("unterminated label value")
		}
		i++ // past closing quote
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i < len(s) && s[i] == '}' {
			return s[i+1:], nil
		}
		return "", fmt.Errorf("malformed label block")
	}
}
