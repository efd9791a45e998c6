package obs

import (
	"io"
	"strconv"
	"strings"
)

// Label is one name="value" pair on a Prometheus sample.
type Label struct {
	Name, Value string
}

// PromWriter renders Prometheus text exposition format (version
// 0.0.4). Callers declare each metric family once with Family and
// then emit its samples; the writer handles label escaping and float
// formatting. The first write error sticks and is reported by Err.
type PromWriter struct {
	w   io.Writer
	sb  strings.Builder
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first error any write hit.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) flushLine() {
	if p.err != nil {
		p.sb.Reset()
		return
	}
	_, p.err = io.WriteString(p.w, p.sb.String())
	p.sb.Reset()
}

// Family writes the # HELP / # TYPE header pair for a metric family.
// typ is "counter", "gauge" or "histogram". All of the family's
// samples must follow before the next Family call.
func (p *PromWriter) Family(name, typ, help string) {
	p.sb.WriteString("# HELP ")
	p.sb.WriteString(name)
	p.sb.WriteByte(' ')
	p.sb.WriteString(escapeHelp(help))
	p.sb.WriteString("\n# TYPE ")
	p.sb.WriteString(name)
	p.sb.WriteByte(' ')
	p.sb.WriteString(typ)
	p.sb.WriteByte('\n')
	p.flushLine()
}

// Sample writes one sample line: name{labels} value.
func (p *PromWriter) Sample(name string, labels []Label, v float64) {
	p.sb.WriteString(name)
	p.writeLabels(labels, "", false)
	p.sb.WriteByte(' ')
	p.sb.WriteString(formatPromFloat(v))
	p.sb.WriteByte('\n')
	p.flushLine()
}

// Histogram writes a full histogram series under name for one label
// set: cumulative _bucket lines for each upper bound (in the caller's
// unit, typically seconds), the +Inf bucket, _sum and _count.
// cumCounts[i] is the cumulative count at bounds[i]; count is the
// total (the +Inf bucket) and must be >= the last cumulative count.
func (p *PromWriter) Histogram(name string, labels []Label, bounds []float64, cumCounts []int64, sum float64, count int64) {
	for i, b := range bounds {
		p.sb.WriteString(name)
		p.sb.WriteString("_bucket")
		p.writeLabels(labels, formatPromFloat(b), true)
		p.sb.WriteByte(' ')
		p.sb.WriteString(strconv.FormatInt(cumCounts[i], 10))
		p.sb.WriteByte('\n')
	}
	p.sb.WriteString(name)
	p.sb.WriteString("_bucket")
	p.writeLabels(labels, "+Inf", true)
	p.sb.WriteByte(' ')
	p.sb.WriteString(strconv.FormatInt(count, 10))
	p.sb.WriteByte('\n')
	p.sb.WriteString(name)
	p.sb.WriteString("_sum")
	p.writeLabels(labels, "", false)
	p.sb.WriteByte(' ')
	p.sb.WriteString(formatPromFloat(sum))
	p.sb.WriteByte('\n')
	p.sb.WriteString(name)
	p.sb.WriteString("_count")
	p.writeLabels(labels, "", false)
	p.sb.WriteByte(' ')
	p.sb.WriteString(strconv.FormatInt(count, 10))
	p.sb.WriteByte('\n')
	p.flushLine()
}

// SeriesName spells one series the way its sample line does:
// name{labels}, with label values escaped, or the bare name when there
// are no labels.
func SeriesName(name string, labels []Label) string {
	var p PromWriter
	p.sb.WriteString(name)
	p.writeLabels(labels, "", false)
	return p.sb.String()
}

// writeLabels renders {a="b",le="..."}; nothing when there are no
// labels and no le.
func (p *PromWriter) writeLabels(labels []Label, le string, withLE bool) {
	if len(labels) == 0 && !withLE {
		return
	}
	p.sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			p.sb.WriteByte(',')
		}
		p.sb.WriteString(l.Name)
		p.sb.WriteString(`="`)
		p.sb.WriteString(EscapeLabelValue(l.Value))
		p.sb.WriteByte('"')
	}
	if withLE {
		if len(labels) > 0 {
			p.sb.WriteByte(',')
		}
		p.sb.WriteString(`le="`)
		p.sb.WriteString(le)
		p.sb.WriteByte('"')
	}
	p.sb.WriteByte('}')
}

// EscapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatPromFloat renders a value the exposition format accepts,
// using the shortest round-trippable form.
func formatPromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
