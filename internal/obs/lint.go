package obs

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

// LintProm validates Prometheus text exposition: line syntax, metric
// and label name rules, HELP/TYPE pairing, family grouping (no
// interleaved samples), and histogram invariants (parseable le
// bounds, a +Inf bucket, cumulative counts monotone in le, _count
// equal to the +Inf bucket). It returns the number of samples seen
// and the first violation. The CI smoke job runs this against a live
// /metrics/prom scrape via cmd/apcc-obslint.
func LintProm(r io.Reader) (samples int, err error) {
	type family struct {
		typ     string
		help    bool
		sampled bool
	}
	families := map[string]*family{}
	// histogram bucket state: family -> labelset(sans le) -> le -> count
	buckets := map[string]map[string]map[float64]float64{}
	counts := map[string]map[string]float64{} // _count samples
	sums := map[string]map[string]bool{}      // _sum presence
	var current string                        // family currently being emitted
	lineNo := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("prom line %d: %s: %q", lineNo, fmt.Sprintf(format, args...), line)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validMetricName(name) {
				return samples, fail("invalid metric name in %s", fields[1])
			}
			f := families[name]
			if f == nil {
				f = &family{}
				families[name] = f
			}
			if fields[1] == "HELP" {
				f.help = true
				continue
			}
			if len(fields) < 4 {
				return samples, fail("TYPE missing type")
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return samples, fail("unknown TYPE %q", fields[3])
			}
			if f.typ != "" {
				return samples, fail("duplicate TYPE for %s", name)
			}
			if f.sampled {
				return samples, fail("TYPE after samples for %s", name)
			}
			if !f.help {
				return samples, fail("TYPE without preceding HELP for %s", name)
			}
			f.typ = fields[3]
			current = name
			continue
		}
		name, labels, value, perr := parseSample(line)
		if perr != nil {
			return samples, fail("%v", perr)
		}
		samples++
		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, s)
			if trimmed != name {
				if f := families[trimmed]; f != nil && f.typ == "histogram" {
					base, suffix = trimmed, s
				}
				break
			}
		}
		f := families[base]
		if f == nil || f.typ == "" {
			return samples, fail("sample for %s without TYPE", base)
		}
		f.sampled = true
		if base != current {
			return samples, fail("sample for %s interleaved into family %s", base, current)
		}
		if f.typ == "histogram" {
			le, rest, hasLE := splitLE(labels)
			key := labelsetKey(rest)
			switch suffix {
			case "_bucket":
				if !hasLE {
					return samples, fail("histogram bucket without le")
				}
				bound, berr := parseLE(le)
				if berr != nil {
					return samples, fail("bad le %q", le)
				}
				if buckets[base] == nil {
					buckets[base] = map[string]map[float64]float64{}
				}
				if buckets[base][key] == nil {
					buckets[base][key] = map[float64]float64{}
				}
				buckets[base][key][bound] = value
			case "_count":
				if counts[base] == nil {
					counts[base] = map[string]float64{}
				}
				counts[base][key] = value
			case "_sum":
				if sums[base] == nil {
					sums[base] = map[string]bool{}
				}
				sums[base][key] = true
			default:
				return samples, fail("bare sample %s for histogram family", name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	for name, f := range families {
		if f.typ == "" {
			return samples, fmt.Errorf("prom: HELP without TYPE for %s", name)
		}
	}
	for name, sets := range buckets {
		for key, bs := range sets {
			bounds := make([]float64, 0, len(bs))
			hasInf := false
			for b := range bs {
				if math.IsInf(b, 1) {
					hasInf = true
				}
				bounds = append(bounds, b)
			}
			if !hasInf {
				return samples, fmt.Errorf("prom: %s{%s}: no +Inf bucket", name, key)
			}
			sort.Float64s(bounds)
			prev := -1.0
			for _, b := range bounds {
				if bs[b] < prev {
					return samples, fmt.Errorf("prom: %s{%s}: bucket counts not monotone at le=%g (%g < %g)",
						name, key, b, bs[b], prev)
				}
				prev = bs[b]
			}
			cnt, ok := counts[name][key]
			if !ok {
				return samples, fmt.Errorf("prom: %s{%s}: missing _count", name, key)
			}
			if cnt != bs[math.Inf(1)] {
				return samples, fmt.Errorf("prom: %s{%s}: _count %g != +Inf bucket %g",
					name, key, cnt, bs[math.Inf(1)])
			}
			if !sums[name][key] {
				return samples, fmt.Errorf("prom: %s{%s}: missing _sum", name, key)
			}
		}
	}
	return samples, nil
}

// parseSample parses `name{l="v",...} value`, validating names and
// label syntax (including escape sequences in values).
func parseSample(line string) (name string, labels []Label, value float64, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		j := 1
		for {
			if j >= len(rest) {
				return "", nil, 0, fmt.Errorf("unterminated label set")
			}
			if rest[j] == '}' {
				j++
				break
			}
			k := j
			for k < len(rest) && rest[k] != '=' {
				k++
			}
			lname := rest[j:k]
			if !validLabelName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			if k+1 >= len(rest) || rest[k+1] != '"' {
				return "", nil, 0, fmt.Errorf("label %s: value not quoted", lname)
			}
			k += 2
			var val strings.Builder
			for {
				if k >= len(rest) {
					return "", nil, 0, fmt.Errorf("label %s: unterminated value", lname)
				}
				c := rest[k]
				if c == '"' {
					k++
					break
				}
				if c == '\\' {
					if k+1 >= len(rest) {
						return "", nil, 0, fmt.Errorf("label %s: dangling escape", lname)
					}
					switch rest[k+1] {
					case '\\', '"':
						val.WriteByte(rest[k+1])
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("label %s: bad escape \\%c", lname, rest[k+1])
					}
					k += 2
					continue
				}
				val.WriteByte(c)
				k++
			}
			labels = append(labels, Label{Name: lname, Value: val.String()})
			if k < len(rest) && rest[k] == ',' {
				k++
			}
			j = k
		}
		rest = rest[j:]
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("want value [timestamp], got %q", rest)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q", fields[0])
	}
	return name, labels, value, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// splitLE removes the le label from a set, returning its value, the
// remaining labels, and whether it was present.
func splitLE(labels []Label) (le string, rest []Label, ok bool) {
	for _, l := range labels {
		if l.Name == "le" {
			le, ok = l.Value, true
			continue
		}
		rest = append(rest, l)
	}
	return le, rest, ok
}

func parseLE(le string) (float64, error) {
	if le == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(le, 64)
}

// labelsetKey canonicalizes a label set for grouping (sorted,
// escaped).
func labelsetKey(labels []Label) string {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(EscapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

// LintTraceDump validates a /debug/trace JSON document, returning how
// many traces and spans it carries. Every trace must tile its total:
// the first tile starts at 0, each later tile starts where the
// previous one ended, no tile is negative or unnamed, and the last
// tile ends at TotalNS. The CI smoke job runs it on a live dump, so an
// attribution bug or zero recorded spans fails the build.
func LintTraceDump(r io.Reader) (traces, spans int, err error) {
	var d Dump
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return 0, 0, fmt.Errorf("trace dump: %w", err)
	}
	for _, rec := range append(append([]Record(nil), d.Traces...), d.Exemplars...) {
		var end int64
		for i, sp := range rec.Spans {
			if sp.Stage == "" {
				return 0, 0, fmt.Errorf("trace %d: tile %d has empty stage", rec.ID, i)
			}
			if sp.StartNS != end {
				return 0, 0, fmt.Errorf("trace %d: tile %d (%s) starts at %d ns, previous tile ends at %d ns", rec.ID, i, sp.Stage, sp.StartNS, end)
			}
			if sp.ExclNS < 0 {
				return 0, 0, fmt.Errorf("trace %d: tile %d (%s) has negative duration %d ns", rec.ID, i, sp.Stage, sp.ExclNS)
			}
			end += sp.ExclNS
		}
		if end != rec.TotalNS {
			return 0, 0, fmt.Errorf("trace %d: tiles end at %d ns, total is %d ns", rec.ID, end, rec.TotalNS)
		}
	}
	traces = len(d.Traces)
	for _, rec := range d.Traces {
		spans += len(rec.Spans)
	}
	return traces, spans, nil
}
