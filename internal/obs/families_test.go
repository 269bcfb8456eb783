package obs

import (
	"regexp"
	"strings"
	"testing"
)

// TestFamilyDeclarations checks every declared family's shape: a
// flare_-prefixed snake_case name, _total on counters and only on
// counters, well-formed distinct label keys, and no name declared
// twice — so no two declarations can disagree on a family's type or
// help text.
func TestFamilyDeclarations(t *testing.T) {
	namePat := regexp.MustCompile(`^flare_[a-z0-9_]+$`)
	keyPat := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	if len(declared) == 0 {
		t.Fatal("no families declared")
	}
	seen := map[string]bool{}
	for _, d := range declared {
		if !namePat.MatchString(d.Name) {
			t.Errorf("family %q does not match %s", d.Name, namePat)
		}
		if seen[d.Name] {
			t.Errorf("family %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if total := strings.HasSuffix(d.Name, "_total"); total != (d.typ == typeCounter) {
			t.Errorf("%s %q: counters, and only counters, end in _total", d.typ, d.Name)
		}
		if d.help == "" {
			t.Errorf("family %q has no help text", d.Name)
		}
		keys := map[string]bool{}
		for _, k := range d.keys {
			if !keyPat.MatchString(k) || k == "le" || keys[k] {
				t.Errorf("family %q: bad or repeated label key %q", d.Name, k)
			}
			keys[k] = true
		}
	}
}

func TestFamilyWrongLabelCountPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   func()
	}{
		{"too few", func() { HTTPRequests.In(NewRegistry(), "/api/estimate") }},
		{"too many", func() { Ticks.In(NewRegistry(), "extra") }},
		{"nil registry", func() { FaultInjected.In(nil, "site") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("wrong label-value count did not panic")
				}
			}()
			tc.in()
		})
	}
}

func TestFamilyNilRegistryDetached(t *testing.T) {
	c := EstimateCache.In(nil, "hit")
	c.Add(2)
	if c.Value() != 2 || EstimateCache.In(nil, "hit").Value() != 0 {
		t.Error("nil-registry counter works only on its own handle")
	}
	g := BreakerState.In(nil, "b")
	g.Set(1)
	if g.Value() != 1 {
		t.Errorf("detached gauge = %v, want 1", g.Value())
	}
	h := StageDuration.In(nil, "stage")
	h.Observe(0.5)
	if h.Count() != 1 || StageDuration.In(nil, "stage").Count() != 0 {
		t.Error("nil-registry histogram works only on its own handle")
	}
}

// TestFamilyLabelsMatchByName pins that a declaration resolves the very
// series a by-name registration with the same pairs does: the label
// string is rendered sorted by key, whatever order the keys are
// declared in, with values escaped.
func TestFamilyLabelsMatchByName(t *testing.T) {
	reg := NewRegistry()
	for _, tc := range []struct {
		family CounterFamily
		kv     []string // by-name pairs, in declared-key order
	}{
		{HTTPRequests, []string{"route", "/api/estimate", "code", "200"}},
		{FaultInjected, []string{"site", `replay "scenario"`, "kind", "error"}},
		{EstimateCache, []string{"result", "hit"}},
		{Ticks, nil},
	} {
		values := make([]string, 0, len(tc.kv)/2)
		for i := 1; i < len(tc.kv); i += 2 {
			values = append(values, tc.kv[i])
		}
		got := writeLabels(tc.family.keys, values, tc.family.byKey)
		if want := renderLabels(tc.kv); got != want {
			t.Errorf("%s labels = %s, want %s", tc.family.Name, got, want)
		}
		if tc.family.In(reg, values...) != reg.Counter(tc.family.Name, "", tc.kv...) {
			t.Errorf("%s: declaration and by-name lookup resolve different series", tc.family.Name)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`flare_http_requests_total{code="200",route="/api/estimate"} 0`,
		`flare_fault_injected_total{kind="error",site="replay \"scenario\""} 0`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %s:\n%s", want, b.String())
		}
	}
}
