package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flare/internal/lint"
	"flare/internal/lint/load"
)

// writeUnitCfg materializes one go vet unit-checker cfg plus its source
// file and returns the cfg path. src is the full file content; the
// import path puts it in a determinism-critical package so detrand
// applies.
func writeUnitCfg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	goFile := filepath.Join(dir, "seed.go")
	if err := os.WriteFile(goFile, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	exports, err := load.ExportData("", "time", "math/rand")
	if err != nil {
		t.Fatalf("ExportData: %v", err)
	}
	cfg := vetConfig{
		ID:          "exempt/kmeans",
		Dir:         dir,
		ImportPath:  "exempt/kmeans",
		GoFiles:     []string{goFile},
		PackageFile: exports,
		VetxOutput:  filepath.Join(dir, "out.vetx"),
	}
	buf, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, buf, 0o666); err != nil {
		t.Fatal(err)
	}
	return cfgPath
}

// TestUnitExemptSuppression drives the vet protocol end to end: the
// same determinism violation must exit 2 bare, and 0 under the generic
// //lint:exempt <analyzer> <reason> form.
func TestUnitExemptSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go list -export load in -short mode")
	}
	const violation = `package kmeans

import "time"

func Seed() int64 { return time.Now().UnixNano() }
`
	const genericExempt = `package kmeans

import "time"

func Seed() int64 {
	//lint:exempt detrand benchmark harness timing, never reaches golden output
	return time.Now().UnixNano()
}
`
	const reasonless = `package kmeans

import "time"

func Seed() int64 {
	//lint:exempt detrand
	return time.Now().UnixNano()
}
`
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"bare violation gates", violation, 2},
		{"generic directive suppresses", genericExempt, 0},
		{"reasonless directive does not suppress", reasonless, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfgPath := writeUnitCfg(t, tc.src)
			if got := runUnit(cfgPath, lint.Suite()); got != tc.want {
				t.Errorf("runUnit exit = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestUnitSkipsTestUnits asserts the vettool ignores test packages the
// way the standalone loader does.
func TestUnitSkipsTestUnits(t *testing.T) {
	dir := t.TempDir()
	cfg := vetConfig{
		ID:         "flare/internal/kmeans.test",
		ImportPath: "flare/internal/kmeans.test",
		VetxOutput: filepath.Join(dir, "out.vetx"),
	}
	buf, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, buf, 0o666); err != nil {
		t.Fatal(err)
	}
	if got := runUnit(cfgPath, lint.Suite()); got != 0 {
		t.Errorf("runUnit on .test unit = %d, want 0", got)
	}
	if _, err := os.Stat(cfg.VetxOutput); err != nil {
		t.Errorf("vetx output not written: %v", err)
	}
}
