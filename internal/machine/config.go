package machine

import (
	"errors"
	"fmt"
)

// Config is a machine shape plus the feature-tunable settings. The zero
// value is not usable; build one with BaselineConfig.
type Config struct {
	Shape      Shape   // the hardware SKU
	LLCMB      float64 // effective machine-wide LLC capacity (Cache Allocation Technology)
	MaxFreqGHz float64 // DVFS frequency cap
	SMTEnabled bool    // Hyper-Threading on/off
}

// BaselineConfig returns the shape's stock configuration: full LLC, full
// clock range, SMT on (Table 4's "Baseline" row).
func BaselineConfig(s Shape) Config {
	return Config{
		Shape:      s,
		LLCMB:      s.TotalLLCMB(),
		MaxFreqGHz: s.MaxFreqGHz,
		SMTEnabled: s.ThreadsPerCore > 1,
	}
}

// Validate checks config invariants against its shape.
func (c Config) Validate() error {
	if err := c.Shape.Validate(); err != nil {
		return err
	}
	switch {
	case c.LLCMB <= 0 || c.LLCMB > c.Shape.TotalLLCMB():
		return fmt.Errorf("machine: config LLC %vMB outside (0, %vMB]", c.LLCMB, c.Shape.TotalLLCMB())
	case c.MaxFreqGHz < c.Shape.BaseFreqGHz || c.MaxFreqGHz > c.Shape.MaxFreqGHz:
		return fmt.Errorf("machine: config max frequency %vGHz outside [%v, %v]",
			c.MaxFreqGHz, c.Shape.BaseFreqGHz, c.Shape.MaxFreqGHz)
	case c.SMTEnabled && c.Shape.ThreadsPerCore < 2:
		return errors.New("machine: SMT enabled on a shape without hardware threads")
	}
	return nil
}

// VCPUs returns the schedulable vCPU count under this config: hardware
// threads with SMT on, physical cores with SMT off.
func (c Config) VCPUs() int {
	if c.SMTEnabled {
		return c.Shape.HWThreads()
	}
	return c.Shape.PhysicalCores()
}

// FreqRatio returns the configured max clock relative to the shape's
// stock max clock, in (0, 1].
func (c Config) FreqRatio() float64 {
	return c.MaxFreqGHz / c.Shape.MaxFreqGHz
}
