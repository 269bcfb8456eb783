// Package ibench provides synthetic interference generators in the style
// of iBench [Delimitrou & Kozyrakis, IISWC'13], which the paper names as
// the high-precision option for reproducing job behaviours on a testbed
// (Sec 5.1): tunable single-resource pressure sources for CPU, LLC
// capacity, memory bandwidth, network, and disk.
//
// Each generator is an ordinary workload.Profile, so it runs through the
// same contention model as real jobs. FitScenario composes generators to
// approximate a recorded colocation's machine-level pressures, enabling
// replay on testbeds where the original binaries are unavailable.
package ibench

import (
	"errors"
	"fmt"
	"math"

	"flare/internal/machine"
	"flare/internal/mathx"
	"flare/internal/metrics"
	"flare/internal/perfmodel"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// Kind selects the resource a generator pressures.
type Kind int

// Generator kinds.
const (
	CPU     Kind = iota + 1 // integer pipeline pressure, clock-bound
	Cache                   // LLC capacity pressure (working-set sweep)
	Stream                  // memory-bandwidth pressure (streaming misses)
	Network                 // NIC pressure
	Disk                    // storage pressure
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Cache:
		return "cache"
	case Stream:
		return "stream"
	case Network:
		return "network"
	case Disk:
		return "disk"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Generator returns a pressure-source profile of the given kind. The
// intensity in (0, 1] scales the generator's resource appetite between a
// light probe and a full-throttle antagonist.
func Generator(kind Kind, intensity float64) (workload.Profile, error) {
	if intensity <= 0 || intensity > 1 {
		return workload.Profile{}, fmt.Errorf("ibench: intensity %v outside (0, 1]", intensity)
	}
	name := fmt.Sprintf("ibench-%s-%02.0f", kind, intensity*100)
	base := workload.Profile{
		Name: name, Long: "iBench " + kind.String() + " pressure generator", Class: workload.ClassLP,
		MemoryGB: 2, InherentMIPS: 9000, BaseIPC: 1.0,
		WorkingSetMB: 1, LLCAPKI: 1, ColdMissFrac: 0.05, MissCurve: 2.5,
		FrontendBound: 0.10, BadSpeculation: 0.05, BackendBound: 0.25, Retiring: 0.60,
		BranchMPKI: 1, L1MPKI: 8, L2MPKI: 2, ALUFrac: 0.5,
		FreqSensitivity: 0.9, SMTYield: 0.6,
		NetworkMbps: 0, DiskMBps: 0.5,
		CtxSwitchPerSec: 50, PageFaultPerSec: 20,
	}
	switch kind {
	case CPU:
		base.BaseIPC = 0.8 + 1.0*intensity
		base.InherentMIPS = base.BaseIPC * 11600
		base.ALUFrac = 0.4 + 0.5*intensity
		base.SMTYield = 0.58
	case Cache:
		// A working-set sweep sized by intensity: from a few MB up to a
		// full socket's LLC, with cache-friendly reuse (it *occupies*
		// capacity rather than streaming through it).
		base.WorkingSetMB = 4 + 56*intensity
		base.LLCAPKI = 8 + 22*intensity
		base.ColdMissFrac = 0.05
		base.MissCurve = 2.0
		base.BaseIPC = 0.9 - 0.4*intensity
		base.FreqSensitivity = 0.5
		base.BackendBound = 0.30 + 0.30*intensity
		base.Retiring = mathx.Clamp(1-base.BackendBound-base.FrontendBound-base.BadSpeculation, 0.05, 1)
		base.SMTYield = 0.75
	case Stream:
		// Pointer-free streaming: every access misses, saturating DRAM.
		base.WorkingSetMB = 128
		base.LLCAPKI = 10 + 30*intensity
		base.ColdMissFrac = 0.85
		base.MissCurve = 0.5
		base.BaseIPC = 0.6 - 0.2*intensity
		base.FreqSensitivity = 0.15
		base.BackendBound = 0.75
		base.FrontendBound = 0.05
		base.BadSpeculation = 0.02
		base.Retiring = 0.18
		base.SMTYield = 0.85
	case Network:
		base.NetworkMbps = 2500 * intensity
		base.BaseIPC = 0.9
		base.FreqSensitivity = 0.4
		base.CtxSwitchPerSec = 20000 * intensity
	case Disk:
		base.DiskMBps = 400 * intensity
		base.BaseIPC = 0.8
		base.FreqSensitivity = 0.35
	default:
		return workload.Profile{}, fmt.Errorf("ibench: unknown kind %d", int(kind))
	}
	if err := base.Validate(); err != nil {
		return workload.Profile{}, fmt.Errorf("ibench: generated profile invalid: %w", err)
	}
	return base, nil
}

// Fit is the generator mix approximating a recorded scenario.
type Fit struct {
	Assignments []perfmodel.Assignment
	// Target and Achieved hold the machine-level pressures FitScenario
	// matches, one metric per entry of pressures, for the original
	// colocation and for its approximation.
	Target   metrics.Vector
	Achieved metrics.Vector
}

// pressures pairs each tunable generator kind with the machine-level
// metric it is tuned to reproduce.
var pressures = []struct {
	kind   Kind
	metric string
}{
	{Cache, "LLC-MPKI-Machine"},
	{Stream, "MemBW-Machine"},
	{Network, "NetworkBW-Machine"},
	{Disk, "DiskBW-Machine"},
}

// FitScenario composes pressure generators to approximate the
// machine-level behaviour of a recorded colocation on the given machine:
// same vCPU footprint, with generator kinds apportioned and tuned by a
// few rounds of proportional control on LLC miss rate, memory bandwidth,
// network, and disk pressure.
func FitScenario(cfg machine.Config, sc scenario.Scenario, cat *workload.Catalog) (*Fit, error) {
	if cat == nil {
		return nil, errors.New("ibench: nil catalog")
	}
	recorded, err := assignments(sc, cat)
	if err != nil {
		return nil, err
	}
	defs := make([]metrics.Def, len(pressures))
	for i, p := range pressures {
		defs[i] = metrics.Def{Name: p.metric, Level: metrics.LevelMachine}
	}
	pcat, err := metrics.NewCatalog(defs)
	if err != nil {
		return nil, err
	}
	ev, err := perfmodel.NewEvaluator(cfg)
	if err != nil {
		return nil, err
	}
	var res perfmodel.Result
	measure := func(jobs []perfmodel.Assignment, dst []float64) (metrics.Vector, error) {
		if err := ev.Begin(jobs); err != nil {
			return metrics.Vector{}, err
		}
		if err := ev.Relax(nil); err != nil {
			return metrics.Vector{}, err
		}
		if err := ev.ResultInto(&res, perfmodel.Options{}); err != nil {
			return metrics.Vector{}, err
		}
		return metrics.ExtractInto(dst, pcat, cfg, res), nil
	}
	target, err := measure(recorded, make([]float64, pcat.Len()))
	if err != nil {
		return nil, err
	}

	instances := sc.TotalInstances()
	if instances == 0 {
		return nil, errors.New("ibench: empty scenario")
	}

	// Start with every instance as a CPU generator, then alternate two
	// moves until the pressures line up: (a) proportional control on each
	// kind's intensity knob; (b) when a knob saturates while its pressure
	// is still short, convert one CPU instance into that kind.
	kinds := []Kind{CPU, Cache, Stream, Network, Disk}
	counts := map[Kind]int{CPU: instances}
	intensity := map[Kind]float64{CPU: 0.5, Cache: 0.6, Stream: 0.6, Network: 0.6, Disk: 0.6}

	var achieved metrics.Vector
	achievedBuf := make([]float64, pcat.Len())
	var mix []perfmodel.Assignment
	const rounds = 60
	for iter := 0; iter < rounds; iter++ {
		mix = mix[:0]
		for _, kind := range kinds {
			if counts[kind] == 0 {
				continue
			}
			prof, err := Generator(kind, intensity[kind])
			if err != nil {
				return nil, err
			}
			mix = append(mix, perfmodel.Assignment{Profile: prof, Instances: counts[kind]})
		}
		if achieved, err = measure(mix, achievedBuf); err != nil {
			return nil, err
		}

		// (a) intensity control.
		for i, p := range pressures {
			intensity[p.kind] = adjust(intensity[p.kind], target.Values[i], achieved.Values[i])
		}
		// (b) instance reassignment for the worst saturated deficit.
		worst, worstRatio := Kind(0), 1.25
		for i, p := range pressures {
			want := target.Values[i]
			if want < 1e-6 || intensity[p.kind] < 0.9 {
				continue
			}
			base := achieved.Values[i]
			if base < 1e-9 {
				base = 1e-9
			}
			if ratio := want / base; ratio > worstRatio {
				worst, worstRatio = p.kind, ratio
			}
		}
		if worst != 0 && counts[CPU] > 0 {
			counts[CPU]--
			counts[worst]++
			intensity[worst] = 0.85 // re-open the knob after adding capacity
		}
	}

	return &Fit{Assignments: mix, Target: target, Achieved: achieved}, nil
}

// assignments resolves a recorded scenario's placements against the job
// catalog.
func assignments(sc scenario.Scenario, cat *workload.Catalog) ([]perfmodel.Assignment, error) {
	out := make([]perfmodel.Assignment, 0, len(sc.Placements))
	for _, p := range sc.Placements {
		prof, err := cat.Lookup(p.Job)
		if err != nil {
			return nil, fmt.Errorf("ibench: %w", err)
		}
		out = append(out, perfmodel.Assignment{Profile: prof, Instances: p.Instances})
	}
	return out, nil
}

// apportion splits n instances across kinds proportionally to weights,
// guaranteeing the weights' relative order survives rounding and that
// exactly n instances are assigned (the first kind absorbs remainder).
func apportion(n int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	assigned := 0
	for i := 1; i < len(weights); i++ { // kind 0 is the remainder sink
		counts[i] = int(math.Round(weights[i] / total * float64(n)))
		assigned += counts[i]
	}
	if assigned > n {
		// Trim overflow from the largest bucket.
		for assigned > n {
			maxI := 1
			for i := 2; i < len(counts); i++ {
				if counts[i] > counts[maxI] {
					maxI = i
				}
			}
			counts[maxI]--
			assigned--
		}
	}
	counts[0] = n - assigned
	return counts
}

// adjust nudges an intensity toward reproducing the target quantity.
func adjust(current, target, achieved float64) float64 {
	if achieved < 1e-9 {
		if target < 1e-9 {
			return current
		}
		return mathx.Clamp(current*1.5, 0.05, 1)
	}
	ratio := target / achieved
	// Damped proportional step.
	return mathx.Clamp(current*(1+0.6*(ratio-1)), 0.05, 1)
}
