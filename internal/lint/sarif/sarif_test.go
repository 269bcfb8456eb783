package sarif_test

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"flare/internal/lint"
	"flare/internal/lint/analysis"
	"flare/internal/lint/sarif"
)

func TestConvert(t *testing.T) {
	analyzers := []*analysis.Analyzer{
		{Name: "locksafe", Doc: "detect lock-order inversions\nlong text", URL: "https://example.test/locksafe"},
		{Name: "ctxflow", Doc: "context propagation"},
	}
	root := string(filepath.Separator) + "repo"
	findings := []lint.Finding{
		{
			Analyzer: "locksafe",
			Position: lint.Position{File: filepath.Join(root, "internal", "server", "a.go"), Line: 10, Column: 2},
			End:      &lint.Position{File: filepath.Join(root, "internal", "server", "a.go"), Line: 10, Column: 14},
			Message:  "lock order inverted",
			Related: []lint.RelatedFinding{{
				Position: lint.Position{File: filepath.Join(root, "internal", "server", "a.go"), Line: 4, Column: 2},
				Message:  "counter-ordered acquisition here",
			}},
		},
		// Unknown analyzer (not in the rule table) must still convert.
		{Analyzer: "retired", Message: "duplicate metric registered"},
	}

	log := sarif.Convert(analyzers, findings, root)
	if log.Version != "2.1.0" || log.Schema == "" {
		t.Fatalf("bad log header: version=%q schema=%q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "flarelint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != 3 {
		t.Fatalf("got %d rules, want 3 (two declared + one discovered)", len(run.Tool.Driver.Rules))
	}
	if r := run.Tool.Driver.Rules[0]; r.ID != "locksafe" ||
		r.ShortDescription.Text != "detect lock-order inversions" ||
		r.HelpURI != "https://example.test/locksafe" {
		t.Errorf("rule[0] = %+v", r)
	}

	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "locksafe" || res.RuleIndex != 0 || res.Level != "warning" {
		t.Errorf("result[0] header = %+v", res)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/server/a.go" || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("artifactLocation = %+v", loc.ArtifactLocation)
	}
	if loc.Region == nil || loc.Region.StartLine != 10 || loc.Region.EndColumn != 14 {
		t.Errorf("region = %+v", loc.Region)
	}
	if len(res.RelatedLocations) != 1 || res.RelatedLocations[0].Message.Text != "counter-ordered acquisition here" {
		t.Errorf("relatedLocations = %+v", res.RelatedLocations)
	}

	// Position-less cross-package finding: rule discovered, region omitted.
	res2 := run.Results[1]
	if res2.RuleIndex != 2 {
		t.Errorf("discovered rule index = %d, want 2", res2.RuleIndex)
	}
	if res2.Locations[0].PhysicalLocation.Region != nil {
		t.Errorf("position-less finding should have no region")
	}

	// The log must round-trip through encoding/json without dropping the
	// required members code scanning validates.
	buf, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]interface{}
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"$schema", "version", "runs"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("encoded log missing %q", key)
		}
	}
}
