package perfmodel

import (
	"math"

	"flare/internal/mathx"
)

// resultInto materialises the converged state into res, synthesising the
// counter values a profiler would report and applying optional
// measurement noise. It reuses res.Jobs, so repeated materialisations of
// one relaxed state (the profiler's noisy samples) allocate nothing in
// steady state.
func (st *state) resultInto(res *Result, opts Options) {
	if cap(res.Jobs) < len(st.jobs) {
		res.Jobs = make([]JobPerf, len(st.jobs))
	} else {
		res.Jobs = res.Jobs[:len(st.jobs)]
	}

	for i := range st.jobs {
		a := &st.jobs[i]
		p := &a.Profile
		freq := st.cfg.MaxFreqGHz
		stall := st.stallCPI(i, freq)
		cpi := st.cal[i].cpiExe + stall

		jp := JobPerf{
			Job:        p.Name,
			Class:      p.Class,
			Instances:  a.Instances,
			MIPS:       st.mips[i],
			IPC:        1 / cpi,
			EffFreqGHz: freq,
			LLCAllocMB: st.allocMB[i],
			LLCAPKI:    p.LLCAPKI,
			LLCMPKI:    st.mpki[i],
			MemBWGBps:  st.jobBWGBps(i),
			BranchMPKI: p.BranchMPKI,
			CPUShare:   st.cpuShare,
			SMTFactor:  st.smtFac[i],
		}

		// L1/L2 misses shift modestly with LLC pressure (more LLC misses
		// imply more refills churning the upper levels).
		pressure := mathx.SafeDiv(st.mpki[i], p.LLCAPKI, 0)
		jp.L1MPKI = p.L1MPKI * (1 + 0.10*pressure)
		jp.L2MPKI = p.L2MPKI * (1 + 0.25*pressure)

		jp.FrontendBound, jp.BadSpeculation, jp.BackendBound, jp.Retiring =
			topdown(p.FrontendBound, p.BadSpeculation, p.BackendBound, p.Retiring,
				stall/cpi)

		// I/O throughput follows granted share and load; OS rates follow
		// delivered activity.
		load := math.Min(st.activity[i], 1.25)
		jp.NetworkMbps = p.NetworkMbps * st.netFactor[i] * load
		jp.DiskMBps = p.DiskMBps * st.dskFactor[i] * load
		activity := st.cpuShare * st.smtFac[i] * load
		jp.CtxSwitchPerSec = p.CtxSwitchPerSec * activity
		jp.PageFaultPerSec = p.PageFaultPerSec * (1 + 0.3*pressure)

		if opts.NoiseStd > 0 {
			applyNoise(&jp, opts)
		}
		res.Jobs[i] = jp
	}

}

// topdown redistributes the profile's base top-down fractions under the
// modelled memory-stall share: memory stalls claim their exact CPI share
// of backend-bound slots, and the remaining slots keep the base ratios of
// the other categories.
func topdown(fe, bs, be, rt, memShare float64) (feOut, bsOut, beOut, rtOut float64) {
	memShare = mathx.Clamp01(memShare)
	// A fixed slice of the base backend-bound fraction is core-bound
	// (ports, divider) rather than memory-bound and survives as-is.
	coreBE := 0.3 * be
	rest := fe + bs + rt + coreBE
	if rest <= 0 {
		return 0, 0, 1, 0
	}
	scale := (1 - memShare) / rest
	feOut = fe * scale
	bsOut = bs * scale
	rtOut = rt * scale
	beOut = memShare + coreBE*scale
	return feOut, bsOut, beOut, rtOut
}

// NoisyMIPS materialises noisy per-instance MIPS from relaxed, a relaxed
// colocation's per-job MIPS (MIPSInto without noise returns them), into
// dst (reused when it has the capacity) and returns it. It is resultInto
// reduced to each job's MIPS: the same common noise factor, with the
// per-counter draws taken and discarded so opts.Rand advances exactly as
// ResultInto advances it. With opts.Tape it reads each job's common
// factor from the tape instead, in the same single multiply, so a tape
// recorded from the seed opts.Rand was seeded with gives the same bits.
// MIPSInto materialises through it, so a caller that kept a relaxed
// vector draws the same values without the Evaluator that relaxed it.
func NoisyMIPS(dst, relaxed []float64, opts Options) ([]float64, error) {
	if opts.Tape != nil && opts.NoiseStd > 0 {
		if err := opts.Tape.check(opts.NoiseStd); err != nil {
			return dst, err
		}
	} else if err := checkNoise(opts); err != nil {
		return dst, err
	}
	dst = growF(dst, len(relaxed))
	switch {
	case opts.NoiseStd <= 0:
		copy(dst, relaxed)
	case opts.Tape != nil:
		f := opts.Tape.next(len(relaxed))
		for i, m := range relaxed {
			dst[i] = m * f[i]
		}
	default:
		for i, m := range relaxed {
			dst[i] = m * math.Exp(opts.Rand.NormFloat64()*opts.NoiseStd)
			for k := 0; k < perCounterDraws; k++ {
				opts.Rand.NormFloat64()
			}
		}
	}
	return dst, nil
}

// perCounterDraws is how many per-counter factors applyNoise draws after
// a job's common factor.
const perCounterDraws = 9

// applyNoise perturbs the measured quantities with multiplicative
// log-normal noise, correlated within a job the way real measurements are
// (a slow run is slow in every counter). It draws the common factor, then
// perCounterDraws per-counter factors.
func applyNoise(jp *JobPerf, opts Options) {
	common := math.Exp(opts.Rand.NormFloat64() * opts.NoiseStd)
	perCounter := func() float64 {
		return math.Exp(opts.Rand.NormFloat64() * opts.NoiseStd * 0.4)
	}
	jp.MIPS *= common
	jp.IPC *= common * perCounter()
	jp.LLCMPKI *= perCounter()
	jp.L1MPKI *= perCounter()
	jp.L2MPKI *= perCounter()
	jp.MemBWGBps *= common * perCounter()
	jp.NetworkMbps *= perCounter()
	jp.DiskMBps *= perCounter()
	jp.CtxSwitchPerSec *= perCounter()
	jp.PageFaultPerSec *= perCounter()
}
