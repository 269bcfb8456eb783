package ibench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"flare/internal/machine"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// fitGoldenDigest is the SHA-256 of the generator mixes FitScenario fits
// in TestFitScenarioGolden: each assignment's full profile (kind and
// every intensity-derived field, printed at round-trip precision) and
// instance count.
const fitGoldenDigest = "8fd6e8cbc5266004f7e7c4a362d1833adaa75803dc6f618551b57077dc6e8e31"

// TestFitScenarioGolden pins FitScenario's fitted mix for fixed scenarios
// on the stock machine, under cache sizing, and on the small shape.
func TestFitScenarioGolden(t *testing.T) {
	cat := workload.DefaultCatalog()
	scenarios := [][]scenario.Placement{
		{{Job: workload.GraphAnalytics, Instances: 3}, {Job: workload.DataCaching, Instances: 2},
			{Job: workload.Mcf, Instances: 2}, {Job: workload.MediaStreaming, Instances: 1}},
		{{Job: workload.MediaStreaming, Instances: 4}, {Job: workload.DataServing, Instances: 2}},
		{{Job: workload.Libquantum, Instances: 5}, {Job: workload.WebSearch, Instances: 2}},
		{{Job: workload.DataAnalytics, Instances: 3}, {Job: workload.Omnetpp, Instances: 2},
			{Job: workload.Sjeng, Instances: 1}, {Job: workload.InMemoryAnalytics, Instances: 2}},
		{{Job: workload.Xalancbmk, Instances: 1}},
	}
	base := machine.BaselineConfig(machine.DefaultShape())
	cfgs := []machine.Config{
		base,
		machine.CacheSizing(12).Apply(base),
		machine.BaselineConfig(machine.SmallShape()),
	}
	h := sha256.New()
	for _, cfg := range cfgs {
		for _, placements := range scenarios {
			sc, err := scenario.New(placements)
			if err != nil {
				t.Fatal(err)
			}
			fit, err := FitScenario(cfg, sc, cat)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range fit.Assignments {
				fmt.Fprintf(h, "%d %+v\n", a.Instances, a.Profile)
			}
			fmt.Fprintln(h, "--")
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fitGoldenDigest {
		t.Errorf("fitted mix digest = %s, want %s", got, fitGoldenDigest)
	}
}
