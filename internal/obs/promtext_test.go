package obs

import (
	"bytes"
	"strings"
	"testing"
)

const sampleExposition = `# HELP flare_shed_total requests shed
# TYPE flare_shed_total counter
flare_shed_total 12
# TYPE flare_http_requests_total counter
flare_http_requests_total{route="/api/estimate",code="200"} 90
flare_http_requests_total{route="/api/estimate",code="429"} 12
flare_http_requests_total{route="/api/db/query",code="200"} 30
flare_weird_label_total{msg="a \"quoted\" value, with {braces} and spaces"} 3
flare_http_request_duration_seconds_bucket{route="/api/estimate",le="0.1"} 80
flare_http_request_duration_seconds_sum{route="/api/estimate"} 4.25
`

func TestParseMetrics(t *testing.T) {
	set, err := ParseMetrics(strings.NewReader(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Sum("flare_shed_total"); got != 12 {
		t.Errorf("Sum(flare_shed_total) = %v, want 12", got)
	}
	if got := set.Sum("flare_http_requests_total"); got != 132 {
		t.Errorf("Sum(flare_http_requests_total) = %v, want 132", got)
	}
	if got := set.SumLabel("flare_http_requests_total", "route", "/api/estimate"); got != 102 {
		t.Errorf("SumLabel(route=/api/estimate) = %v, want 102", got)
	}
	if got := set.SumLabel("flare_http_requests_total", "code", "429"); got != 12 {
		t.Errorf("SumLabel(code=429) = %v, want 12", got)
	}
	// Label values with escaped quotes, braces, and spaces must not
	// confuse the label-block scanner.
	if got := set.Sum("flare_weird_label_total"); got != 3 {
		t.Errorf("Sum(flare_weird_label_total) = %v, want 3", got)
	}
	if got := set.SumLabel("flare_weird_label_total", "msg",
		`a "quoted" value, with {braces} and spaces`); got != 3 {
		t.Errorf("SumLabel on escaped value = %v, want 3", got)
	}
	// Missing families sum to zero rather than erroring: counters that
	// never fired simply have no series yet.
	if got := set.Sum("flare_absent_total"); got != 0 {
		t.Errorf("Sum(absent) = %v, want 0", got)
	}
}

func TestParseMetricsErrors(t *testing.T) {
	for _, bad := range []string{
		`flare_x{route="/a" 1`,             // unterminated label block
		`flare_x`,                          // no value
		`flare_x notanumber`,               // bad value
		`flare_x{route="/a"}`,              // labels but no value
		"flare_ok 1\nmalformed line value", // one bad line fails the read
	} {
		if _, err := ParseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseMetrics(%q) did not error", bad)
		}
	}
}

// TestParseMetricsRoundTrip writes a registry with WritePrometheus and
// reads it back: every counter, gauge, labelled series (label values
// with spaces, quotes and backslashes) and histogram series must come
// back with the value the registry holds.
func TestParseMetricsRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_plain_total", "plain counter").Add(7)
	odd := []string{"two words", `say "hi"`, `back\slash`, "line\nbreak"}
	for i, v := range odd {
		reg.Counter("rt_labelled_total", "labelled counter", "msg", v, "code", "200").Add(uint64(10 * (i + 1)))
	}
	reg.Gauge("rt_gauge", "gauge", "node", "node 0").Set(-2.5)
	h := reg.Histogram("rt_seconds", "histogram", []float64{0.1, 1}, "route", `/api/"x"`)
	for _, v := range []float64{0.05, 0.5, 0.5, 3} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	set, err := ParseMetrics(&buf)
	if err != nil {
		t.Fatalf("parsing our own exposition: %v\n%s", err, buf.String())
	}

	check := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	check("rt_plain_total", set.Sum("rt_plain_total"), 7)
	check("rt_labelled_total", set.Sum("rt_labelled_total"), 100)
	for i, v := range odd {
		check("rt_labelled_total{msg="+v+"}", set.SumLabel("rt_labelled_total", "msg", v), float64(10*(i+1)))
	}
	check("rt_labelled_total{code=200}", set.SumLabel("rt_labelled_total", "code", "200"), 100)
	check("rt_gauge{node=node 0}", set.SumLabel("rt_gauge", "node", "node 0"), -2.5)

	route := `/api/"x"`
	check("rt_seconds_count", set.SumLabel("rt_seconds_count", "route", route), 4)
	check("rt_seconds_sum", set.SumLabel("rt_seconds_sum", "route", route), 4.05)
	for le, want := range map[string]float64{"0.1": 1, "1": 3, "+Inf": 4} {
		check("rt_seconds_bucket{le="+le+"}", set.SumLabel("rt_seconds_bucket", "le", le), want)
	}
	if n := len(set["rt_seconds_bucket"]); n != 3 {
		t.Errorf("rt_seconds_bucket has %d series, want 3", n)
	}
}
