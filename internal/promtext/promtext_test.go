package promtext

import (
	"math"
	"strings"
	"testing"
)

const good = `# TYPE reqs_total counter
reqs_total{class="query"} 12
reqs_total{class="join"} 3
# TYPE temp gauge
temp 21.5
# TYPE lat_seconds histogram
lat_seconds_bucket{class="q",le="0.001"} 2
lat_seconds_bucket{class="q",le="0.01"} 5
lat_seconds_bucket{class="q",le="+Inf"} 7
lat_seconds_sum{class="q"} 0.042
lat_seconds_count{class="q"} 7
`

func TestParseGood(t *testing.T) {
	m, err := Parse(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Families) != 3 {
		t.Fatalf("families: %v", m.Order)
	}
	f := m.Families["reqs_total"]
	if f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("reqs_total: %+v", f)
	}
	if f.Samples[0].Label("class") != "query" || f.Samples[0].Value != 12 {
		t.Fatalf("sample: %+v", f.Samples[0])
	}
	h := m.Families["lat_seconds"]
	if h.Type != "histogram" || len(h.Samples) != 5 {
		t.Fatalf("lat_seconds: %+v", h)
	}
	var inf Sample
	for _, s := range h.Samples {
		if s.Name == "lat_seconds_bucket" && s.Label("le") == "+Inf" {
			inf = s
		}
	}
	if !math.IsInf(mustValue(t, inf.Label("le")), 1) || inf.Value != 7 {
		t.Fatalf("inf bucket: %+v", inf)
	}
}

func mustValue(t *testing.T, s string) float64 {
	t.Helper()
	v, err := parseValue(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestParseEscapedLabels(t *testing.T) {
	m, err := Parse(strings.NewReader("# TYPE x gauge\nx{name=\"a\\\"b\\\\c\\nd\"} 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	got := m.Families["x"].Samples[0].Label("name")
	if got != "a\"b\\c\nd" {
		t.Fatalf("unescaped label: %q", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"dup family": `# TYPE a counter
a 1
# TYPE a counter
a 2
`,
		"dup series": `# TYPE a counter
a{x="1"} 1
a{x="1"} 2
`,
		"orphan sample": "b 1\n",
		"interleaved families": `# TYPE a counter
a 1
# TYPE b counter
b 1
a 2
`,
		"bad type":            "# TYPE a widget\na 1\n",
		"timestamp":           "# TYPE a counter\na 1 1700000000\n",
		"unterminated labels": "# TYPE a counter\na{x=\"1\" 1\n",
		"non-cumulative buckets": `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`,
		"unsorted bucket bounds": `# TYPE h histogram
h_bucket{le="2"} 3
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`,
		"missing inf bucket": `# TYPE h histogram
h_bucket{le="1"} 5
h_sum 1
h_count 5
`,
		"inf bucket disagrees with count": `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 6
h_sum 1
h_count 5
`,
		"suffixed sample under gauge": "# TYPE g gauge\ng_count 1\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
