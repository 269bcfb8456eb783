package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestDefaultCatalogShape(t *testing.T) {
	c := DefaultCatalog()
	if got := c.Len(); got != 14 {
		t.Fatalf("catalog size = %d, want 14 (8 HP + 6 LP)", got)
	}
	if got := len(c.HPJobs()); got != 8 {
		t.Errorf("HP jobs = %d, want 8", got)
	}
}

func TestDefaultCatalogAllValid(t *testing.T) {
	for _, p := range DefaultCatalog().Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestDefaultCatalogCoversTable3(t *testing.T) {
	c := DefaultCatalog()
	wantHP := []string{DataAnalytics, DataCaching, DataServing, GraphAnalytics,
		InMemoryAnalytics, MediaStreaming, WebSearch, WebServing}
	for _, name := range wantHP {
		p, err := c.Lookup(name)
		if err != nil {
			t.Errorf("missing HP job %s: %v", name, err)
			continue
		}
		if p.Class != ClassHP {
			t.Errorf("job %s class = %v, want HP", name, p.Class)
		}
	}
	wantLP := []string{Perlbench, Sjeng, Libquantum, Xalancbmk, Omnetpp, Mcf}
	for _, name := range wantLP {
		p, err := c.Lookup(name)
		if err != nil {
			t.Errorf("missing LP job %s: %v", name, err)
			continue
		}
		if p.Class != ClassLP {
			t.Errorf("job %s class = %v, want LP", name, p.Class)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := DefaultCatalog().Lookup("nosuchjob"); err == nil {
		t.Error("Lookup of unknown job did not error")
	}
}

func TestNewCatalogRejectsDuplicates(t *testing.T) {
	p := defaultProfiles()[0]
	if _, err := NewCatalog([]Profile{p, p}); err == nil {
		t.Error("duplicate profiles did not error")
	}
}

func TestNewCatalogRejectsInvalid(t *testing.T) {
	p := defaultProfiles()[0]
	p.BaseIPC = -1
	if _, err := NewCatalog([]Profile{p}); err == nil {
		t.Error("invalid profile did not error")
	}
}

func TestValidateCatchesEachViolation(t *testing.T) {
	base := defaultProfiles()[0]
	tests := []struct {
		name   string
		mutate func(*Profile)
		want   string
	}{
		{"empty-name", func(p *Profile) { p.Name = "" }, "empty name"},
		{"bad-class", func(p *Profile) { p.Class = 0 }, "invalid class"},
		{"bad-mips", func(p *Profile) { p.InherentMIPS = 0 }, "inherent MIPS"},
		{"bad-ipc", func(p *Profile) { p.BaseIPC = 0 }, "base IPC"},
		{"bad-ws", func(p *Profile) { p.WorkingSetMB = 0 }, "working set"},
		{"bad-apki", func(p *Profile) { p.LLCAPKI = -1 }, "LLC APKI"},
		{"bad-coldmiss", func(p *Profile) { p.ColdMissFrac = 1 }, "cold-miss"},
		{"bad-curve", func(p *Profile) { p.MissCurve = 0 }, "miss-curve"},
		{"bad-freqsens", func(p *Profile) { p.FreqSensitivity = 1.5 }, "frequency sensitivity"},
		{"bad-smt", func(p *Profile) { p.SMTYield = 0.4 }, "SMT yield"},
		{"bad-topdown", func(p *Profile) { p.Retiring += 0.5 }, "top-down"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid profile")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestProfilesReturnsCopy(t *testing.T) {
	c := DefaultCatalog()
	ps := c.Profiles()
	ps[0].Name = "mutated"
	if got, _ := c.Lookup(DataAnalytics); got.Name != DataAnalytics {
		t.Error("Profiles() exposed internal state")
	}
}

func TestHPJobsDistinctMicroarchSignatures(t *testing.T) {
	// The clustering pipeline needs jobs to be distinguishable; assert no
	// two HP jobs share the same (WorkingSetMB, LLCAPKI, BaseIPC) triple.
	seen := map[[3]float64]string{}
	for _, p := range DefaultCatalog().HPJobs() {
		key := [3]float64{p.WorkingSetMB, p.LLCAPKI, p.BaseIPC}
		if prev, dup := seen[key]; dup {
			t.Errorf("jobs %s and %s have identical signatures", prev, p.Name)
		}
		seen[key] = p.Name
	}
}

func TestClassString(t *testing.T) {
	if ClassHP.String() != "HP" || ClassLP.String() != "LP" {
		t.Error("Class.String() wrong")
	}
	if got := Class(9).String(); got != "Class(9)" {
		t.Errorf("unknown class String() = %q", got)
	}
}

func TestCatalogJSONRoundTrip(t *testing.T) {
	orig := DefaultCatalog()
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("round trip changed size: %d -> %d", orig.Len(), back.Len())
	}
	for _, p := range orig.Profiles() {
		q, err := back.Lookup(p.Name)
		if err != nil {
			t.Fatalf("job %s lost in round trip", p.Name)
		}
		if q != p {
			t.Errorf("job %s changed in round trip:\n%+v\n%+v", p.Name, p, q)
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{broken")); err == nil {
		t.Error("garbage did not error")
	}
	if _, err := ReadJSON(strings.NewReader(`[{"name":"x","class":"MEDIUM"}]`)); err == nil {
		t.Error("unknown class did not error")
	}
	// Structurally valid JSON but invalid profile values.
	if _, err := ReadJSON(strings.NewReader(`[{"name":"x","class":"HP","base_ipc":-1}]`)); err == nil {
		t.Error("invalid profile values did not error")
	}
}
