package lint_test

import (
	"encoding/json"
	"testing"

	"flare/internal/lint"
)

func TestSuite(t *testing.T) {
	suite := lint.Suite()
	if len(suite) != 1 {
		t.Fatalf("Suite has %d analyzers, want 1", len(suite))
	}
	seen := map[string]bool{}
	for _, a := range suite {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incompletely declared", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestFindingString(t *testing.T) {
	f := lint.Finding{
		Analyzer: "ctxflow",
		Position: lint.Position{File: "a/b.go", Line: 7, Column: 3},
		Message:  "msg",
	}
	if got, want := f.String(), "a/b.go:7:3: [ctxflow] msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	noPos := lint.Finding{Analyzer: "ctxflow", Message: "cross-package"}
	if got, want := noPos.String(), "[ctxflow] cross-package"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestFindingJSONShape(t *testing.T) {
	buf, err := json.Marshal(lint.Finding{
		Analyzer: "ctxflow",
		Position: lint.Position{File: "x.go", Line: 1, Column: 2},
		Message:  "m",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Optional fields (url, end, related) must stay absent when unset so
	// downstream JSON consumers keep parsing pre-v2 output.
	want := `{"analyzer":"ctxflow","position":{"file":"x.go","line":1,"column":2},"message":"m"}`
	if string(buf) != want {
		t.Errorf("JSON = %s, want %s", buf, want)
	}

	full := lint.Finding{
		Analyzer: "ctxflow",
		URL:      "https://example.test/ctxflow",
		Position: lint.Position{File: "x.go", Line: 3, Column: 1},
		End:      &lint.Position{File: "x.go", Line: 3, Column: 9},
		Message:  "m2",
		Related: []lint.RelatedFinding{{
			Position: lint.Position{File: "x.go", Line: 1, Column: 1},
			Message:  "blocks here",
		}},
	}
	buf, err = json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	wantFull := `{"analyzer":"ctxflow","url":"https://example.test/ctxflow",` +
		`"position":{"file":"x.go","line":3,"column":1},"end":{"file":"x.go","line":3,"column":9},` +
		`"message":"m2","related":[{"position":{"file":"x.go","line":1,"column":1},"message":"blocks here"}]}`
	if string(buf) != wantFull {
		t.Errorf("JSON = %s, want %s", buf, wantFull)
	}
}

// TestRepoIsClean runs the full suite over every non-test package in
// the module, the same sweep CI's flarelint job performs: any
// regression that reintroduces a violation fails here first.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go list -export load in -short mode")
	}
	findings, err := lint.Run("../..", []string{"./..."}, lint.Suite())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}
