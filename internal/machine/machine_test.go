package machine

import (
	"strings"
	"testing"
)

func TestDefaultShapeMatchesTable2(t *testing.T) {
	s := DefaultShape()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.HWThreads(); got != 48 {
		t.Errorf("HWThreads = %d, want 48 (2 sockets x 24 vCPUs)", got)
	}
	if got := s.PhysicalCores(); got != 24 {
		t.Errorf("PhysicalCores = %d, want 24", got)
	}
	if got := s.TotalLLCMB(); got != 60 {
		t.Errorf("TotalLLCMB = %v, want 60 (2 x 30MB)", got)
	}
	if s.MaxFreqGHz != 2.9 || s.BaseFreqGHz != 1.2 {
		t.Errorf("freq range = [%v, %v], want [1.2, 2.9]", s.BaseFreqGHz, s.MaxFreqGHz)
	}
	if s.DRAMGB != 256 {
		t.Errorf("DRAM = %v, want 256", s.DRAMGB)
	}
}

func TestSmallShapeMatchesTable5(t *testing.T) {
	s := SmallShape()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.HWThreads(); got != 32 {
		t.Errorf("HWThreads = %d, want 32 (2 sockets x 16 vCPUs)", got)
	}
	if s.DRAMGB != 128 {
		t.Errorf("DRAM = %v, want 128", s.DRAMGB)
	}
	if s.HWThreads() >= DefaultShape().HWThreads() {
		t.Error("small shape is not smaller than default")
	}
}

func TestShapeValidateViolations(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Shape)
	}{
		{"empty-name", func(s *Shape) { s.Name = "" }},
		{"no-sockets", func(s *Shape) { s.Sockets = 0 }},
		{"bad-threads", func(s *Shape) { s.ThreadsPerCore = 3 }},
		{"no-llc", func(s *Shape) { s.LLCMBPerSocket = 0 }},
		{"no-dram", func(s *Shape) { s.DRAMGB = 0 }},
		{"no-membw", func(s *Shape) { s.MemBWGBps = 0 }},
		{"inverted-freq", func(s *Shape) { s.MaxFreqGHz = s.BaseFreqGHz - 1 }},
		{"no-net", func(s *Shape) { s.NetworkGbps = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := DefaultShape()
			tt.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("Validate accepted an invalid shape")
			}
		})
	}
}

func TestBaselineConfig(t *testing.T) {
	cfg := BaselineConfig(DefaultShape())
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.SMTEnabled {
		t.Error("baseline SMT should be enabled on an SMT-capable shape")
	}
	if cfg.VCPUs() != 48 {
		t.Errorf("VCPUs = %d, want 48", cfg.VCPUs())
	}
	if cfg.LLCMB != cfg.Shape.TotalLLCMB() || cfg.FreqRatio() != 1 {
		t.Errorf("baseline LLC = %v MB of %v, freq ratio = %v; want the full LLC and 1",
			cfg.LLCMB, cfg.Shape.TotalLLCMB(), cfg.FreqRatio())
	}
}

func TestConfigValidateViolations(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"llc-zero", func(c *Config) { c.LLCMB = 0 }},
		{"llc-too-big", func(c *Config) { c.LLCMB = c.Shape.TotalLLCMB() + 1 }},
		{"freq-below-base", func(c *Config) { c.MaxFreqGHz = 0.5 }},
		{"freq-above-max", func(c *Config) { c.MaxFreqGHz = 99 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := BaselineConfig(DefaultShape())
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted an invalid config")
			}
		})
	}
}

func TestConfigSMTOnSingleThreadShapePanicsValidation(t *testing.T) {
	s := DefaultShape()
	s.ThreadsPerCore = 1
	cfg := BaselineConfig(s)
	if cfg.SMTEnabled {
		t.Error("BaselineConfig enabled SMT on a 1-thread/core shape")
	}
	cfg.SMTEnabled = true
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted SMT on a 1-thread/core shape")
	}
}

func TestFeature1CacheSizing(t *testing.T) {
	cfg := BaselineConfig(DefaultShape())
	got := CacheSizing(12).Apply(cfg)
	if got.LLCMB != 24 {
		t.Errorf("Feature1 LLC = %vMB, want 24 (2 x 12MB)", got.LLCMB)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("Feature1 config invalid: %v", err)
	}
	// Original untouched (value semantics).
	if cfg.LLCMB != 60 {
		t.Error("Apply mutated the input config")
	}
}

func TestFeature1CannotExceedShape(t *testing.T) {
	cfg := BaselineConfig(DefaultShape())
	got := CacheSizing(500).Apply(cfg)
	if got.LLCMB != cfg.Shape.TotalLLCMB() {
		t.Errorf("oversized cache request gave %vMB, want clamped to %v", got.LLCMB, cfg.Shape.TotalLLCMB())
	}
}

func TestFeature2DVFSCap(t *testing.T) {
	cfg := BaselineConfig(DefaultShape())
	got := DVFSCap(1.8).Apply(cfg)
	if got.MaxFreqGHz != 1.8 {
		t.Errorf("Feature2 max freq = %v, want 1.8", got.MaxFreqGHz)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("Feature2 config invalid: %v", err)
	}
	// Cap below base clamps to base.
	if got := DVFSCap(0.5).Apply(cfg); got.MaxFreqGHz != cfg.Shape.BaseFreqGHz {
		t.Errorf("under-base cap gave %v, want clamped to base %v", got.MaxFreqGHz, cfg.Shape.BaseFreqGHz)
	}
}

func TestFeature3SMTOff(t *testing.T) {
	cfg := BaselineConfig(DefaultShape())
	got := SMTOff().Apply(cfg)
	if got.SMTEnabled {
		t.Error("Feature3 left SMT enabled")
	}
	if got.VCPUs() != 24 {
		t.Errorf("Feature3 VCPUs = %d, want 24 (physical cores)", got.VCPUs())
	}
}

func TestPaperFeatures(t *testing.T) {
	fs := PaperFeatures()
	if len(fs) != 3 {
		t.Fatalf("PaperFeatures count = %d, want 3", len(fs))
	}
	wantNames := []string{"feature1", "feature2", "feature3"}
	for i, f := range fs {
		if f.Name != wantNames[i] {
			t.Errorf("feature %d name = %s, want %s", i, f.Name, wantNames[i])
		}
		cfg := f.Apply(BaselineConfig(DefaultShape()))
		if err := cfg.Validate(); err != nil {
			t.Errorf("feature %s produces invalid config: %v", f.Name, err)
		}
	}
}

func TestBaselineFeatureIsIdentity(t *testing.T) {
	cfg := BaselineConfig(DefaultShape())
	if got := Baseline().Apply(cfg); got != cfg {
		t.Error("Baseline().Apply changed the config")
	}
}

func TestFeatureDescriptionsMentionSetting(t *testing.T) {
	if !strings.Contains(CacheSizing(12).Description, "12") {
		t.Error("cache-sizing description missing size")
	}
	if !strings.Contains(DVFSCap(1.8).Description, "1.8") {
		t.Error("DVFS description missing cap")
	}
}
