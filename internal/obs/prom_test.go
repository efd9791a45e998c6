package obs

import (
	"strings"
	"testing"
)

// TestPromWriterLintRoundTrip: everything the writer emits passes the
// linter, including escaped label values and a histogram series.
func TestPromWriterLintRoundTrip(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Family("apcc_requests_total", "counter", "Total HTTP requests.")
	p.Sample("apcc_requests_total", nil, 42)
	p.Family("apcc_cache_events_total", "counter", "Cache events by kind.")
	p.Sample("apcc_cache_events_total", []Label{{"event", "hit"}}, 10)
	p.Sample("apcc_cache_events_total", []Label{{"event", `weird"value\n`}}, 1)
	p.Family("apcc_block_stage_seconds", "histogram", "Per-stage latency.")
	p.Histogram("apcc_block_stage_seconds",
		[]Label{{"stage", "l1"}, {"codec", "dict"}, {"outcome", "hit"}},
		[]float64{0.001, 0.01, 0.1},
		[]int64{3, 7, 9}, 0.123, 9)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	samples, err := LintProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("linter rejected writer output: %v\n%s", err, out)
	}
	if samples != 3+4+2 {
		t.Errorf("linter counted %d samples\n%s", samples, out)
	}
	if !strings.Contains(out, `le="+Inf"`) {
		t.Error("no +Inf bucket emitted")
	}
	if !strings.Contains(out, `event="weird\"value\\n"`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
	// SeriesName spells a series exactly as its sample line does.
	for _, series := range []string{
		SeriesName("apcc_requests_total", nil),
		SeriesName("apcc_cache_events_total", []Label{{"event", `weird"value\n`}}),
	} {
		if !strings.Contains(out, "\n"+series+" ") {
			t.Errorf("no sample line for series %s:\n%s", series, out)
		}
	}
}

// TestLintPromRejects: each class of malformed exposition is caught.
func TestLintPromRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "apcc_x_total 1\n",
		"TYPE without HELP":    "# TYPE apcc_x_total counter\napcc_x_total 1\n",
		"bad type":             "# HELP apcc_x x\n# TYPE apcc_x meter\napcc_x 1\n",
		"bad metric name":      "# HELP apcc-x x\n# TYPE apcc-x counter\napcc-x 1\n",
		"bad value":            "# HELP apcc_x x\n# TYPE apcc_x counter\napcc_x one\n",
		"unquoted label":       "# HELP apcc_x x\n# TYPE apcc_x counter\napcc_x{a=b} 1\n",
		"interleaved families": "# HELP a_t x\n# TYPE a_t counter\n# HELP b_t x\n# TYPE b_t counter\nb_t 1\na_t 1\n",
		"non-monotone buckets": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing +Inf": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
		"missing sum": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
		"HELP only": "# HELP apcc_x x\n",
	}
	for name, input := range cases {
		if _, err := LintProm(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted\n%s", name, input)
		}
	}
}

// TestLintTraceDump: valid dumps count, and a trace whose tiles do not
// run back to back from 0 to its total is caught.
func TestLintTraceDump(t *testing.T) {
	good := `{"traces":[{"id":1,"total_ns":100,"spans":[{"stage":"route","outcome":"ok","start_ns":0,"excl_ns":40},{"stage":"write","outcome":"ok","start_ns":40,"excl_ns":60}]}],"exemplars":[]}`
	traces, spans, err := LintTraceDump(strings.NewReader(good))
	if err != nil || traces != 1 || spans != 2 {
		t.Fatalf("good dump: traces=%d spans=%d err=%v", traces, spans, err)
	}
	bad := map[string]string{
		"gap":         `{"traces":[{"id":1,"total_ns":100,"spans":[{"stage":"route","start_ns":0,"excl_ns":40},{"stage":"write","start_ns":50,"excl_ns":50}]}]}`,
		"overlap":     `{"traces":[{"id":1,"total_ns":100,"spans":[{"stage":"route","start_ns":0,"excl_ns":40},{"stage":"write","start_ns":30,"excl_ns":70}]}]}`,
		"short sum":   `{"traces":[{"id":1,"total_ns":100,"spans":[{"stage":"route","start_ns":0,"excl_ns":40},{"stage":"write","start_ns":40,"excl_ns":50}]}]}`,
		"negative":    `{"traces":[{"id":1,"total_ns":100,"spans":[{"stage":"route","start_ns":0,"excl_ns":-10},{"stage":"write","start_ns":-10,"excl_ns":110}]}]}`,
		"empty stage": `{"traces":[{"id":1,"total_ns":100,"spans":[{"stage":"route","start_ns":0,"excl_ns":40},{"stage":"","start_ns":40,"excl_ns":60}]}]}`,
		"truncated":   "{",
	}
	for name, dump := range bad {
		if _, _, err := LintTraceDump(strings.NewReader(dump)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
