package perfmodel

import (
	"math"

	"flare/internal/machine"
	"flare/internal/mathx"
	"flare/internal/workload"
)

// state carries the fixed-point iteration over the mutually dependent
// quantities: per-job throughput, LLC allocation, and bandwidth pressure.
// A state is reusable: load/applyActivity regrow the per-job slices in
// place, so a long-lived Evaluator amortises the buffers across calls.
type state struct {
	cfg      machine.Config
	jobs     []Assignment
	cal      []calib
	activity []float64 // per-job load intensity multiplier (phase behaviour)

	cpuShare  float64   // uniform vCPU time share (1 unless oversubscribed)
	smtFac    []float64 // per-job per-thread SMT throughput factor
	netFactor []float64 // per-job network throttle
	dskFactor []float64 // per-job disk throttle

	allocMB []float64 // per-instance LLC allocation
	mpki    []float64 // per-job LLC MPKI under current allocation
	mips    []float64 // per-instance MIPS under current conditions
	access  []float64 // scratch: per-job LLC access rate during relaxation
	nInst   int       // total instance count across jobs (fixed per load)
	bwUtil  float64   // memory bandwidth utilisation
	latInfl float64   // memory latency inflation from bandwidth pressure
}

// growF returns s resized to n elements, reusing its backing array when
// possible. Contents are unspecified; every caller overwrites them.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// load binds the state to a colocation on st.cfg: per-job calibration
// and the activity-independent shares (CPU time, SMT). applyActivity
// must run before relax/resultInto.
func (st *state) load(jobs []Assignment) {
	st.jobs = jobs
	n := len(jobs)
	if cap(st.cal) < n {
		st.cal = make([]calib, n)
	} else {
		st.cal = st.cal[:n]
	}
	st.activity = growF(st.activity, n)
	st.smtFac = growF(st.smtFac, n)
	st.netFactor = growF(st.netFactor, n)
	st.dskFactor = growF(st.dskFactor, n)
	st.allocMB = growF(st.allocMB, n)
	st.mpki = growF(st.mpki, n)
	st.mips = growF(st.mips, n)
	st.access = growF(st.access, n)
	for i := range jobs {
		st.cal[i] = calibrate(st.cfg.Shape, jobs[i].Profile)
	}
	st.nInst = totalInstances(jobs)
	st.computeCPUShare()
	st.computeSMTFactors()
}

// applyActivity sets the per-job load multipliers (nil means nominal) and
// re-derives everything downstream of them: I/O throttles and the initial
// fixed-point guess (even LLC split, solo-style throughput).
func (st *state) applyActivity(activity []float64) {
	for i := range st.jobs {
		st.activity[i] = 1
		if activity != nil {
			st.activity[i] = activity[i]
		}
	}
	st.computeIOFactors()
	st.latInfl = 1
	even := st.cfg.LLCMB / float64(st.nInst)
	for i := range st.jobs {
		p := &st.jobs[i].Profile
		st.allocMB[i] = even
		st.mpki[i] = p.LLCAPKI * missRatio(p, even)
		st.mips[i] = st.instanceMIPS(i)
	}
}

func totalInstances(jobs []Assignment) int {
	var n int
	for _, a := range jobs {
		n += a.Instances
	}
	return n
}

// computeCPUShare sets the uniform time share every vCPU receives. The
// scheduler never overcommits in normal operation, so this only bites
// when a scenario recorded on a big machine is replayed on a smaller
// configuration (Sec 5.5) or when SMT-off halves the vCPU count.
func (st *state) computeCPUShare() {
	demand := st.nInst * workload.InstanceVCPUs
	avail := st.cfg.VCPUs()
	if demand <= avail {
		st.cpuShare = 1
		return
	}
	st.cpuShare = float64(avail) / float64(demand)
}

// computeSMTFactors models hardware-thread co-scheduling. The OS spreads
// runnable threads across physical cores first, so sharing only appears
// once more threads run than cores exist. A shared thread's throughput
// drops to its SMTYield, further reduced when the average core partner is
// ALU-hungry (port contention).
func (st *state) computeSMTFactors() {
	if !st.cfg.SMTEnabled {
		for i := range st.smtFac {
			st.smtFac[i] = 1
		}
		return
	}
	used := float64(st.nInst * workload.InstanceVCPUs)
	avail := float64(st.cfg.VCPUs())
	if used > avail {
		used = avail
	}
	cores := float64(st.cfg.Shape.PhysicalCores())
	sharedThreads := math.Max(0, used-cores) * 2
	fracShared := 0.0
	if used > 0 {
		fracShared = mathx.Clamp01(sharedThreads / used)
	}

	// Instance-weighted mean ALU pressure of potential core partners.
	var aluSum, w float64
	for _, a := range st.jobs {
		aluSum += a.Profile.ALUFrac * float64(a.Instances)
		w += float64(a.Instances)
	}
	partnerALU := mathx.SafeDiv(aluSum, w, 0)

	for i, a := range st.jobs {
		penalty := (1 - a.Profile.SMTYield) * (1 + smtPartnerALUWeight*partnerALU)
		st.smtFac[i] = mathx.Clamp(1-fracShared*penalty, 0.4, 1)
	}
}

// computeIOFactors throttles jobs whose network or disk demand cannot be
// met. The throttle is weighted by how I/O-bound the job is: a memcached
// instance saturating the NIC loses throughput one-for-one, while a batch
// job with incidental traffic barely notices.
func (st *state) computeIOFactors() {
	var netDemand, dskDemand float64
	for i, a := range st.jobs {
		netDemand += a.Profile.NetworkMbps * float64(a.Instances) * st.activity[i]
		dskDemand += a.Profile.DiskMBps * float64(a.Instances) * st.activity[i]
	}
	netCap := st.cfg.Shape.NetworkGbps * 1000
	dskCap := st.cfg.Shape.DiskMBps

	netGrant := 1.0
	if netDemand > netCap {
		netGrant = netCap / netDemand
	}
	dskGrant := 1.0
	if dskDemand > dskCap {
		dskGrant = dskCap / dskDemand
	}

	for i, a := range st.jobs {
		nb := a.Profile.NetworkMbps / (a.Profile.NetworkMbps + 800)
		db := a.Profile.DiskMBps / (a.Profile.DiskMBps + 400)
		st.netFactor[i] = 1 - nb*(1-netGrant)
		st.dskFactor[i] = 1 - db*(1-dskGrant)
	}
}

// relax runs the fixed-point iteration to convergence.
func (st *state) relax() {
	for iter := 0; iter < fixedPointIters; iter++ {
		st.updateLLCAllocation()
		st.updateBandwidth()
		for i := range st.jobs {
			st.mips[i] = st.instanceMIPS(i)
		}
	}
}

// updateLLCAllocation divides the configured LLC capacity among instances
// in proportion to their access intensity (accesses per second), an
// established approximation of shared-LRU occupancy, then refreshes each
// job's miss ratio from its miss-ratio curve.
func (st *state) updateLLCAllocation() {
	var totalAccess float64
	access := st.access // state-owned scratch; relax runs this every round
	for i := range st.jobs {
		a := &st.jobs[i]
		// Accesses/sec per instance = MIPS(M instr/s) * APKI (per k instr).
		rate := st.mips[i] * a.Profile.LLCAPKI
		if rate < 1e-9 {
			rate = 1e-9
		}
		access[i] = rate
		totalAccess += rate * float64(a.Instances)
	}
	floor := llcFloorFrac * st.cfg.LLCMB / float64(st.nInst)
	for i := range st.jobs {
		p := &st.jobs[i].Profile
		share := access[i] / totalAccess
		st.allocMB[i] = floor + (1-llcFloorFrac)*st.cfg.LLCMB*share
		st.mpki[i] = p.LLCAPKI * missRatio(p, st.allocMB[i])
	}
}

// updateBandwidth recomputes DRAM traffic and the queueing-induced memory
// latency inflation.
func (st *state) updateBandwidth() {
	st.bwUtil = mathx.Clamp(st.totalBWGBps()/st.cfg.Shape.MemBWGBps, 0, bwUtilCap)
	if st.bwUtil <= bwUtilKnee {
		st.latInfl = 1 + 0.25*st.bwUtil
		return
	}
	// Past the knee, delay grows queue-like but saturates: the 0.8
	// damping keeps the worst-case inflation near 3x unloaded latency.
	excess := st.bwUtil - bwUtilKnee
	st.latInfl = 1 + 0.25*bwUtilKnee + 1.4*excess/(1-0.8*st.bwUtil)
}

// totalBWGBps returns aggregate DRAM traffic under the current estimates.
func (st *state) totalBWGBps() float64 {
	var bw float64
	for i := range st.jobs {
		bw += st.jobBWGBps(i) * float64(st.jobs[i].Instances)
	}
	return bw
}

// jobBWGBps returns one instance's DRAM traffic in GB/s.
func (st *state) jobBWGBps(i int) float64 {
	// MIPS * 1e6 instr/s * MPKI/1000 misses/instr * bytes -> GB/s.
	return st.mips[i] * st.mpki[i] * cacheLineBytes * writebackFactor / 1e6
}

// instanceMIPS evaluates the CPI model for job i under current conditions
// and converts it to per-instance MIPS.
func (st *state) instanceMIPS(i int) float64 {
	freq := st.cfg.MaxFreqGHz
	cpi := st.cal[i].cpiExe + st.stallCPI(i, freq)

	// MIPS per hardware thread = freq(GHz)*1000 Mcycles/s / CPI, then
	// scaled by the thread-level factors and the instance's vCPU count.
	perThread := freq * 1000 / cpi
	eff := perThread * st.smtFac[i] * st.cpuShare * st.netFactor[i] * st.dskFactor[i]
	// Load intensity scales demand (and hence throughput) but is capped:
	// a job cannot exceed what its allocated vCPUs sustain.
	demand := math.Min(st.activity[i], 1.25)
	return eff * workload.InstanceVCPUs * demand
}

// stallCPI returns the clock-invariant stall component of job i's CPI in
// cycles at the given frequency: generic non-LLC stalls plus LLC-miss
// stalls under the current miss rate and bandwidth-induced latency
// inflation.
func (st *state) stallCPI(i int, freqGHz float64) float64 {
	stallNs := st.cal[i].otherStallNs +
		st.mpki[i]/1000*st.cal[i].lmemNs*memBlockingFactor*st.latInfl
	return stallNs * freqGHz
}
