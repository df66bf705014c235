package metrics

// This file is the neutral metric-export model the telemetry layer shares:
// every producer (perfmodel.Timings, serve.Stats, the fleet simulator, the
// HTTP front end) renders its counters into []Family, and the two writers
// below serialise one consistent snapshot as Prometheus text exposition
// (version 0.0.4, what a scrape of GET /metrics returns) or as a JSON
// document (what darpa-sim dumps per run).
// Keeping the model here — metrics already sits below every producer — means
// perfmodel, serve, httpd and fleet can all emit families without an import
// cycle.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// FamilyType is the Prometheus metric type of a family.
type FamilyType string

// The family types the exporters emit.
const (
	TypeCounter FamilyType = "counter"
	TypeGauge   FamilyType = "gauge"
	TypeSummary FamilyType = "summary"
	TypeUntyped FamilyType = "untyped"
)

// Sample is one time series point inside a family: a label set and a value.
// Suffix extends the family name for summary series ("_sum", "_count");
// plain samples leave it empty.
type Sample struct {
	Suffix string            `json:"suffix,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Family is one named metric with its samples — the unit both writers
// consume.
type Family struct {
	Name    string     `json:"name"`
	Help    string     `json:"help,omitempty"`
	Type    FamilyType `json:"type"`
	Samples []Sample   `json:"samples"`
}

// Counter builds a counter family.
func Counter(name, help string, samples ...Sample) Family {
	return Family{Name: name, Help: help, Type: TypeCounter, Samples: samples}
}

// Gauge builds a gauge family.
func Gauge(name, help string, samples ...Sample) Family {
	return Family{Name: name, Help: help, Type: TypeGauge, Samples: samples}
}

// V is the unlabelled single-value sample, the common case for scalar
// counters and gauges.
func V(v float64) Sample { return Sample{Value: v} }

// L builds a labelled sample from alternating key, value pairs; it panics on
// an odd pair count (a programming error in the exporter, not data).
func L(v float64, kv ...string) Sample {
	if len(kv)%2 != 0 {
		panic("metrics: L requires alternating key, value pairs")
	}
	s := Sample{Value: v}
	if len(kv) > 0 {
		s.Labels = make(map[string]string, len(kv)/2)
		for i := 0; i < len(kv); i += 2 {
			s.Labels[kv[i]] = kv[i+1]
		}
	}
	return s
}

// WriteText renders the families as Prometheus text exposition format 0.0.4:
// a # HELP and # TYPE line per family, then one line per sample with labels
// sorted by key. Families render in the order given (producers assemble them
// deterministically); a scrape's output is therefore byte-stable for equal
// inputs.
func WriteText(w io.Writer, families []Family) error {
	bw := bufio.NewWriter(w)
	for _, f := range families {
		if f.Name == "" {
			continue
		}
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		typ := f.Type
		if typ == "" {
			typ = TypeUntyped
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, typ)
		for _, s := range f.Samples {
			bw.WriteString(f.Name)
			bw.WriteString(s.Suffix)
			writeLabels(bw, s.Labels)
			bw.WriteByte(' ')
			bw.WriteString(formatValue(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// TextString is WriteText into a string, for tests and log lines.
func TextString(families []Family) string {
	var b strings.Builder
	_ = WriteText(&b, families)
	return b.String()
}

// WriteJSON renders the same snapshot as an indented JSON document
// {"families": [...]} — the machine-readable twin of the text exposition,
// used for per-run dumps and BENCH trajectories.
func WriteJSON(w io.Writer, families []Family) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Families []Family `json:"families"`
	}{Families: families})
}

func writeLabels(w *bufio.Writer, labels map[string]string) {
	if len(labels) == 0 {
		return
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			w.WriteByte(',')
		}
		// %q adds the quotes and escapes ", \ and newlines, which is all
		// the exposition format asks of a label value.
		fmt.Fprintf(w, `%s=%q`, k, labels[k])
	}
	w.WriteByte('}')
}

// formatValue renders a float the way Prometheus clients do: shortest
// round-trip representation, with the IEEE specials spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// ValidateText checks that r holds well-formed Prometheus text exposition:
// every non-comment line is `name[{labels}] value`, every series name was
// declared by a preceding # TYPE line, and values parse as floats. It
// returns the number of samples read, so callers can also assert
// non-emptiness. This is the parser the scrape checks in CI and the httpd
// tests run against the /metrics output.
func ValidateText(r io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	typed := map[string]bool{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return samples, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			switch FamilyType(parts[3]) {
			case TypeCounter, TypeGauge, TypeSummary, TypeUntyped, "histogram":
			default:
				return samples, fmt.Errorf("line %d: unknown metric type %q", lineNo, parts[3])
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := splitSeries(line)
		if !ok {
			return samples, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		if !validMetricName(name) {
			return samples, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		if !declaredBy(typed, name) {
			return samples, fmt.Errorf("line %d: series %q has no # TYPE declaration", lineNo, name)
		}
		val := strings.TrimSpace(rest)
		if _, perr := strconv.ParseFloat(strings.TrimPrefix(val, "+"), 64); perr != nil {
			return samples, fmt.Errorf("line %d: bad value %q: %v", lineNo, val, perr)
		}
		samples++
	}
	if serr := sc.Err(); serr != nil {
		return samples, serr
	}
	return samples, nil
}

// splitSeries splits one sample line into its series name (label block
// stripped) and the remainder holding the value.
func splitSeries(line string) (name, rest string, ok bool) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", "", false
		}
		return line[:i], line[j+1:], true
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return "", "", false
	}
	return line[:i], line[i:], true
}

// declaredBy reports whether name, or name minus a summary suffix, has a
// TYPE declaration.
func declaredBy(typed map[string]bool, name string) bool {
	if typed[name] {
		return true
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] {
			return true
		}
	}
	return false
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
