package metrics

import (
	"fmt"
	"strings"

	"flare/internal/machine"
	"flare/internal/mathx"
	"flare/internal/perfmodel"
	"flare/internal/workload"
)

// Vector is a named metric observation for one scenario, in catalog order.
type Vector struct {
	Names  []string  // metric names (shared with the catalog)
	Values []float64 // parallel values

	// index maps name to position. ExtractInto shares the catalog's
	// immutable lookup map so Get is O(1); vectors built from struct
	// literals leave it nil and fall back to a scan of Names.
	index map[string]int
}

// Get returns the value of the named metric.
func (v Vector) Get(name string) (float64, error) {
	if v.index != nil {
		if i, ok := v.index[name]; ok {
			return v.Values[i], nil
		}
		return 0, fmt.Errorf("metrics: vector has no metric %q", name)
	}
	for i, n := range v.Names {
		if n == name {
			return v.Values[i], nil
		}
	}
	return 0, fmt.Errorf("metrics: vector has no metric %q", name)
}

// ExtractInto computes the full raw metric vector for one modelled
// colocation result on the given machine configuration, writing into a
// caller-provided values slice of length Catalog.Len(), so steady-state
// extraction (the profiler's per-sample loop) allocates nothing. The
// returned Vector aliases dst and shares the catalog's immutable name
// list; treat Names as read-only. It panics on a length mismatch, which
// is always a programming error.
func ExtractInto(dst []float64, c *Catalog, cfg machine.Config, res perfmodel.Result) Vector {
	if len(dst) != c.Len() {
		panic(fmt.Sprintf("metrics: ExtractInto dst has length %d, catalog has %d metrics", len(dst), c.Len()))
	}
	machineAgg, hpAgg := aggregatePair(res.Jobs)
	for i := range c.plan {
		e := c.plan[i]
		a := &machineAgg
		if e.hp {
			a = &hpAgg
		}
		dst[i] = applyOp(e.op, a, &machineAgg, &hpAgg, &cfg, c.names[i])
	}
	return Vector{
		Names:  c.names, // read-only after NewCatalog, safe to share
		Values: dst,
		index:  c.byName, // read-only after NewCatalog, safe to share
	}
}

// agg holds class-filtered aggregates: sums for extensive quantities and
// instruction-weighted means for intensive ones.
type agg struct {
	instances int
	jobTypes  int
	vcpus     int

	mips      float64 // total
	memBW     float64 // total GB/s
	networkBW float64 // total Mb/s
	diskBW    float64 // total MB/s
	ctx       float64 // total 1/s
	faults    float64 // total 1/s
	llcOccup  float64 // total MB

	ipc      float64 // weighted
	freq     float64 // weighted
	apki     float64 // weighted
	mpki     float64 // weighted
	l1       float64 // weighted
	l2       float64 // weighted
	branch   float64 // weighted
	fe       float64 // weighted
	bs       float64 // weighted
	be       float64 // weighted
	rt       float64 // weighted
	smt      float64 // weighted
	cpuShare float64 // weighted
}

// accumulate folds one job into the aggregate. Weighted fields hold
// weighted sums until finish divides them through.
func (a *agg) accumulate(j *perfmodel.JobPerf, w *float64) {
	n := float64(j.Instances)
	total := j.MIPS * n
	a.instances += j.Instances
	a.jobTypes++
	a.vcpus += j.Instances * workload.InstanceVCPUs
	a.mips += total
	a.memBW += j.MemBWGBps * n
	a.networkBW += j.NetworkMbps * n
	a.diskBW += j.DiskMBps * n
	a.ctx += j.CtxSwitchPerSec * n
	a.faults += j.PageFaultPerSec * n
	a.llcOccup += j.LLCAllocMB * n

	a.ipc += j.IPC * total
	a.freq += j.EffFreqGHz * total
	a.apki += j.LLCAPKI * total
	a.mpki += j.LLCMPKI * total
	a.l1 += j.L1MPKI * total
	a.l2 += j.L2MPKI * total
	a.branch += j.BranchMPKI * total
	a.fe += j.FrontendBound * total
	a.bs += j.BadSpeculation * total
	a.be += j.BackendBound * total
	a.rt += j.Retiring * total
	a.smt += j.SMTFactor * total
	a.cpuShare += j.CPUShare * total
	*w += total
}

// finish converts the weighted sums into weighted means.
func (a *agg) finish(w float64) {
	if w <= 0 {
		return
	}
	a.ipc /= w
	a.freq /= w
	a.apki /= w
	a.mpki /= w
	a.l1 /= w
	a.l2 /= w
	a.branch /= w
	a.fe /= w
	a.bs /= w
	a.be /= w
	a.rt /= w
	a.smt /= w
	a.cpuShare /= w
}

// aggregatePair builds the machine-wide and HP-only aggregates in one pass
// over the job list: the paper's two collection levels, and the only
// rollup of a modelled result (perfmodel reports per-job figures only).
func aggregatePair(jobs []perfmodel.JobPerf) (machineAgg, hpAgg agg) {
	var wAll, wHP float64
	for i := range jobs {
		j := &jobs[i]
		machineAgg.accumulate(j, &wAll)
		if j.Class == workload.ClassHP {
			hpAgg.accumulate(j, &wHP)
		}
	}
	machineAgg.finish(wAll)
	hpAgg.finish(wHP)
	return machineAgg, hpAgg
}

// opcode enumerates the compiled per-metric extraction operations. Level
// metrics read one aggregate (machine or HP, chosen by the plan entry);
// global metrics read both aggregates and the machine configuration.
type opcode uint8

const (
	opUnknown opcode = iota // no extractor: panics if ever extracted
	opStdSlot               // variability twin: zeroed, the profiler owns it

	// Per-level metrics (one per base name in the catalog).
	opMIPS
	opIPC
	opCPI
	opInstrPerSec
	opEffFreq
	opLLCAPKI
	opLLCMPKI
	opLLCMissRatio
	opLLCMissesPerSec
	opLLCOccupancy
	opL1MPKI
	opL2MPKI
	opBranchMPKI
	opBranchMissesPerSec
	opTDFrontend
	opTDBadSpec
	opTDBackend
	opTDRetiring
	opMemBW
	opMemBWBytes
	opMemReadBW
	opMemWriteBW
	opCPUUtil
	opVCPUs
	opInstances
	opMIPSPerVCPU
	opNetworkBW
	opDiskBW
	opCtxSwitches
	opPageFaults
	opCtxSwitchPerKInstr
	opPageFaultPerKInstr
	opLLCAccessesPerSec
	opL1MissesPerSec
	opL2MissesPerSec
	opLLCHitRatio
	opStallFrac
	opICacheMPKI
	opDTLBMPKI
	opSpecWastePerSec
	opMIPSPerInstance
	opMemBWPerInstance
	opSMTFactor
	opCPUShare
	opCyclesPerSec
	opMemStallFrac

	// Global metrics (no per-class split).
	opMemBWUtil
	opNetworkUtil
	opDiskUtil
	opJobTypes
	opHPShare
	opOccupancyFrac
	opFreqRatio
	opLLCConfigMB
	opMemLatencyEst
)

// levelOps maps a base metric name (level suffix stripped) to its opcode.
var levelOps = map[string]opcode{
	"MIPS":               opMIPS,
	"IPC":                opIPC,
	"CPI":                opCPI,
	"InstrPerSec":        opInstrPerSec,
	"EffFreq":            opEffFreq,
	"LLC-APKI":           opLLCAPKI,
	"LLC-MPKI":           opLLCMPKI,
	"LLC-MissRatio":      opLLCMissRatio,
	"LLC-MissesPerSec":   opLLCMissesPerSec,
	"LLC-Occupancy":      opLLCOccupancy,
	"L1-MPKI":            opL1MPKI,
	"L2-MPKI":            opL2MPKI,
	"Branch-MPKI":        opBranchMPKI,
	"BranchMissesPerSec": opBranchMissesPerSec,
	"TD-Frontend":        opTDFrontend,
	"TD-BadSpec":         opTDBadSpec,
	"TD-Backend":         opTDBackend,
	"TD-Retiring":        opTDRetiring,
	"MemBW":              opMemBW,
	"MemBW-Bytes":        opMemBWBytes,
	"MemReadBW":          opMemReadBW,
	"MemWriteBW":         opMemWriteBW,
	"CPUUtil":            opCPUUtil,
	"VCPUs":              opVCPUs,
	"Instances":          opInstances,
	"MIPSPerVCPU":        opMIPSPerVCPU,
	"NetworkBW":          opNetworkBW,
	"DiskBW":             opDiskBW,
	"CtxSwitches":        opCtxSwitches,
	"PageFaults":         opPageFaults,
	"CtxSwitchPerKInstr": opCtxSwitchPerKInstr,
	"PageFaultPerKInstr": opPageFaultPerKInstr,
	"LLC-AccessesPerSec": opLLCAccessesPerSec,
	"L1-MissesPerSec":    opL1MissesPerSec,
	"L2-MissesPerSec":    opL2MissesPerSec,
	"LLC-HitRatio":       opLLCHitRatio,
	"StallFrac":          opStallFrac,
	"ICache-MPKI":        opICacheMPKI,
	"DTLB-MPKI":          opDTLBMPKI,
	"SpecWastePerSec":    opSpecWastePerSec,
	"MIPSPerInstance":    opMIPSPerInstance,
	"MemBWPerInstance":   opMemBWPerInstance,
	"SMTFactor":          opSMTFactor,
	"CPUShare":           opCPUShare,
	"CyclesPerSec":       opCyclesPerSec,
	"MemStallFrac":       opMemStallFrac,
}

// globalOps maps the metrics that exist without a per-class split.
var globalOps = map[string]opcode{
	"MemBWUtil":     opMemBWUtil,
	"NetworkUtil":   opNetworkUtil,
	"DiskUtil":      opDiskUtil,
	"JobTypes":      opJobTypes,
	"HPShare":       opHPShare,
	"OccupancyFrac": opOccupancyFrac,
	"FreqRatio":     opFreqRatio,
	"LLCConfigMB":   opLLCConfigMB,
	"MemLatencyEst": opMemLatencyEst,
}

// planEntry is one metric's compiled extraction: the op plus which
// aggregate feeds it.
type planEntry struct {
	op opcode
	hp bool // read the HP aggregate instead of the machine one
}

// trimLevelSuffix strips a trailing "-Machine"/"-HP" collection-level
// suffix from a metric name, mirroring the old name-parsing extractor.
func trimLevelSuffix(name string) string {
	for _, lv := range []Level{LevelMachine, LevelHP} {
		s := "-" + lv.String()
		if len(name) > len(s) && strings.HasSuffix(name, s) {
			return name[:len(name)-len(s)]
		}
	}
	return name
}

// compileDef resolves one definition to its plan entry. Variability twins
// compile to a zeroing op; names with no extractor compile to opUnknown so
// extraction panics exactly as the interpretive switch used to — the
// catalog and the op table must stay in lockstep (tests enforce it).
func compileDef(d Def) planEntry {
	if _, isStd := StdOf(d.Name); isStd {
		return planEntry{op: opStdSlot}
	}
	if d.Level != LevelHP {
		if op, ok := globalOps[d.Name]; ok {
			return planEntry{op: op}
		}
	}
	op, ok := levelOps[trimLevelSuffix(d.Name)]
	if !ok {
		return planEntry{op: opUnknown}
	}
	return planEntry{op: op, hp: d.Level == LevelHP}
}

// applyOp evaluates one compiled metric. a is the plan-selected aggregate
// for level metrics; global metrics read both aggregates and cfg. Unknown
// ops panic because the catalog and extractor must stay in lockstep.
func applyOp(op opcode, a, machineAgg, hpAgg *agg, cfg *machine.Config, name string) float64 {
	switch op {
	case opStdSlot:
		// Variability metrics summarise *across* samples; the profiler
		// fills them from repeated extractions. Zero the slot so a reused
		// dst never leaks a previous extraction.
		return 0
	case opMIPS:
		return a.mips
	case opIPC:
		return a.ipc
	case opCPI:
		return mathx.SafeDiv(1, a.ipc, 0)
	case opInstrPerSec:
		return a.mips * 1e6
	case opEffFreq:
		return a.freq
	case opLLCAPKI:
		return a.apki
	case opLLCMPKI:
		return a.mpki
	case opLLCMissRatio:
		return mathx.SafeDiv(a.mpki, a.apki, 0)
	case opLLCMissesPerSec:
		return a.mips * a.mpki * 1e3
	case opLLCOccupancy:
		return a.llcOccup
	case opL1MPKI:
		return a.l1
	case opL2MPKI:
		return a.l2
	case opBranchMPKI:
		return a.branch
	case opBranchMissesPerSec:
		return a.mips * a.branch * 1e3
	case opTDFrontend:
		return a.fe
	case opTDBadSpec:
		return a.bs
	case opTDBackend:
		return a.be
	case opTDRetiring:
		return a.rt
	case opMemBW:
		return a.memBW
	case opMemBWBytes:
		return a.memBW * 1e9
	case opMemReadBW:
		return 0.6 * a.memBW
	case opMemWriteBW:
		return 0.4 * a.memBW
	case opCPUUtil:
		return mathx.Clamp01(float64(a.vcpus) * a.cpuShare / float64(cfg.VCPUs()))
	case opVCPUs:
		return float64(a.vcpus)
	case opInstances:
		return float64(a.instances)
	case opMIPSPerVCPU:
		return mathx.SafeDiv(a.mips, float64(a.vcpus), 0)
	case opNetworkBW:
		return a.networkBW
	case opDiskBW:
		return a.diskBW
	case opCtxSwitches:
		return a.ctx
	case opPageFaults:
		return a.faults
	case opCtxSwitchPerKInstr:
		return mathx.SafeDiv(a.ctx, a.mips*1e3, 0)
	case opPageFaultPerKInstr:
		return mathx.SafeDiv(a.faults, a.mips*1e3, 0)
	case opLLCAccessesPerSec:
		return a.mips * a.apki * 1e3
	case opL1MissesPerSec:
		return a.mips * a.l1 * 1e3
	case opL2MissesPerSec:
		return a.mips * a.l2 * 1e3
	case opLLCHitRatio:
		return 1 - mathx.SafeDiv(a.mpki, a.apki, 0)
	case opStallFrac:
		return 1 - a.rt
	case opICacheMPKI:
		return 30 * a.fe
	case opDTLBMPKI:
		return 0.05*a.l2 + mathx.SafeDiv(a.faults, a.mips*1e3, 0)*50
	case opSpecWastePerSec:
		return a.bs * a.mips * 1e6
	case opMIPSPerInstance:
		return mathx.SafeDiv(a.mips, float64(a.instances), 0)
	case opMemBWPerInstance:
		return mathx.SafeDiv(a.memBW, float64(a.instances), 0)
	case opSMTFactor:
		return a.smt
	case opCPUShare:
		return a.cpuShare
	case opCyclesPerSec:
		return a.freq * 1e9 * float64(a.vcpus) * a.cpuShare
	case opMemStallFrac:
		return 0.7 * a.be

	case opMemBWUtil:
		return memBWUtil(machineAgg, cfg)
	case opNetworkUtil:
		return mathx.Clamp01(machineAgg.networkBW / (cfg.Shape.NetworkGbps * 1000))
	case opDiskUtil:
		return mathx.Clamp01(machineAgg.diskBW / cfg.Shape.DiskMBps)
	case opJobTypes:
		return float64(machineAgg.jobTypes)
	case opHPShare:
		return mathx.SafeDiv(float64(hpAgg.instances), float64(machineAgg.instances), 0)
	case opOccupancyFrac:
		return mathx.SafeDiv(float64(machineAgg.vcpus), float64(cfg.VCPUs()), 0)
	case opFreqRatio:
		return cfg.FreqRatio()
	case opLLCConfigMB:
		return cfg.LLCMB
	case opMemLatencyEst:
		// Unloaded ~80ns, growing with bandwidth pressure.
		u := memBWUtil(machineAgg, cfg)
		return 80 * (1 + 2.2*u*u)
	default:
		panic(fmt.Sprintf("metrics: no extractor for metric %q", name))
	}
}

// memBWUtil is the machine's DRAM traffic as a fraction of the shape's
// sustainable bandwidth.
func memBWUtil(machineAgg *agg, cfg *machine.Config) float64 {
	return mathx.Clamp01(machineAgg.memBW / cfg.Shape.MemBWGBps)
}
