package metrics

import (
	"math"
	"strings"
	"testing"

	"flare/internal/machine"
	"flare/internal/perfmodel"
	"flare/internal/workload"
)

func TestDefaultCatalogSize(t *testing.T) {
	c := DefaultCatalog()
	if c.Len() < 100 {
		t.Errorf("catalog has %d metrics, want 100+ (paper Sec 4.2)", c.Len())
	}
}

func TestDefaultCatalogTwoLevels(t *testing.T) {
	c := DefaultCatalog()
	var nMachine, nHP int
	for _, d := range c.Defs() {
		switch d.Level {
		case LevelMachine:
			nMachine++
		case LevelHP:
			nHP++
		default:
			t.Errorf("metric %s has invalid level %v", d.Name, d.Level)
		}
	}
	if nHP == 0 || nMachine == 0 {
		t.Fatalf("catalog lacks a level: machine=%d hp=%d", nMachine, nHP)
	}
	// Every HP metric must have a Machine twin (the paper's example:
	// LLC-APKI-Machine and LLC-APKI-HP).
	for _, d := range c.Defs() {
		if d.Level != LevelHP {
			continue
		}
		twin := strings.Replace(d.Name, "-HP", "-Machine", 1)
		if _, err := c.Lookup(twin); err != nil {
			t.Errorf("HP metric %s has no Machine twin %s", d.Name, twin)
		}
	}
}

func TestCatalogLookupAndIndex(t *testing.T) {
	c := DefaultCatalog()
	d, err := c.Lookup("LLC-MPKI-HP")
	if err != nil {
		t.Fatal(err)
	}
	if d.Level != LevelHP {
		t.Errorf("LLC-MPKI-HP level = %v, want HP", d.Level)
	}
	if c.Index("LLC-MPKI-HP") < 0 {
		t.Error("Index returned -1 for existing metric")
	}
	if c.Index("nope") != -1 {
		t.Error("Index returned non-negative for missing metric")
	}
	if _, err := c.Lookup("nope"); err == nil {
		t.Error("Lookup of missing metric did not error")
	}
}

func TestNewCatalogRejectsDuplicates(t *testing.T) {
	defs := []Def{{Name: "X", Level: LevelMachine}, {Name: "X", Level: LevelHP}}
	if _, err := NewCatalog(defs); err == nil {
		t.Error("duplicate names did not error")
	}
	if _, err := NewCatalog([]Def{{Name: ""}}); err == nil {
		t.Error("empty name did not error")
	}
}

func evaluateMixed(t *testing.T) (machine.Config, perfmodel.Result) {
	t.Helper()
	cfg := machine.BaselineConfig(machine.DefaultShape())
	cat := workload.DefaultCatalog()
	dc, err := cat.Lookup(workload.DataCaching)
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := cat.Lookup(workload.Mcf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfmodel.Evaluate(cfg, []perfmodel.Assignment{
		{Profile: dc, Instances: 3},
		{Profile: mcf, Instances: 2},
	}, perfmodel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res
}

func TestExtractCoversWholeCatalog(t *testing.T) {
	// applyOp panics on any metric without an extractor; this test is
	// the lockstep guarantee between catalog and the compiled op table.
	c := DefaultCatalog()
	cfg, res := evaluateMixed(t)
	v := ExtractInto(make([]float64, c.Len()), c, cfg, res)
	if len(v.Values) != c.Len() {
		t.Fatalf("vector has %d values, want %d", len(v.Values), c.Len())
	}
	for i, x := range v.Values {
		if x != x { // NaN check
			t.Errorf("metric %s extracted as NaN", v.Names[i])
		}
	}
}

func TestExtractTwoLevelSemantics(t *testing.T) {
	c := DefaultCatalog()
	cfg, res := evaluateMixed(t)
	v := ExtractInto(make([]float64, c.Len()), c, cfg, res)

	get := func(name string) float64 {
		t.Helper()
		x, err := v.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}

	// Machine MIPS covers all 5 instances, HP only the 3 DC instances.
	machineMIPS := get("MIPS-Machine")
	hpMIPS := get("MIPS-HP")
	if hpMIPS <= 0 || hpMIPS >= machineMIPS {
		t.Errorf("MIPS: HP=%v Machine=%v, want 0 < HP < Machine", hpMIPS, machineMIPS)
	}

	// HP instances = 3, machine instances = 5.
	if got := get("Instances-Machine"); got != 5 {
		t.Errorf("Instances-Machine = %v, want 5", got)
	}
	if got := get("Instances-HP"); got != 3 {
		t.Errorf("Instances-HP = %v, want 3", got)
	}
	if got := get("HPShare"); got != 0.6 {
		t.Errorf("HPShare = %v, want 0.6", got)
	}

	// mcf is much more memory-bound than memcached, so the machine-wide
	// MPKI (including mcf) must exceed the HP-only MPKI.
	if get("LLC-MPKI-Machine") <= get("LLC-MPKI-HP") {
		t.Errorf("machine MPKI %v <= HP MPKI %v despite mcf neighbours",
			get("LLC-MPKI-Machine"), get("LLC-MPKI-HP"))
	}
}

// TestExtractMachineAggregates checks the machine rollup against the
// per-job results it is built from: MIPS sums instances at both levels,
// vCPUs count every instance, CPU utilisation is a fraction and the
// instruction-weighted top-down fractions still sum to one.
func TestExtractMachineAggregates(t *testing.T) {
	c := DefaultCatalog()
	cfg, res := evaluateMixed(t)
	v := ExtractInto(make([]float64, c.Len()), c, cfg, res)
	get := func(name string) float64 {
		t.Helper()
		x, err := v.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}

	var total float64
	for _, j := range res.Jobs {
		total += j.MIPS * float64(j.Instances)
	}
	if got := get("MIPS-Machine"); math.Abs(got-total) > 1e-6*total {
		t.Errorf("MIPS-Machine = %v, want the job sum %v", got, total)
	}
	if got, want := get("MIPS-HP"), res.Jobs[0].MIPS*3; math.Abs(got-want) > 1e-6*want {
		t.Errorf("MIPS-HP = %v, want %v", got, want)
	}
	if got := get("VCPUs-Machine"); got != 20 {
		t.Errorf("VCPUs-Machine = %v, want 20", got)
	}
	if u := get("CPUUtil-Machine"); u <= 0 || u > 1 {
		t.Errorf("CPUUtil-Machine = %v, want in (0,1]", u)
	}
	sum := get("TD-Frontend-Machine") + get("TD-BadSpec-Machine") +
		get("TD-Backend-Machine") + get("TD-Retiring-Machine")
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("machine top-down sums to %v", sum)
	}
}

func TestExtractDerivedDuplicatesAreConsistent(t *testing.T) {
	c := DefaultCatalog()
	cfg, res := evaluateMixed(t)
	v := ExtractInto(make([]float64, c.Len()), c, cfg, res)

	get := func(name string) float64 {
		t.Helper()
		x, err := v.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}

	if cpi, ipc := get("CPI-Machine"), get("IPC-Machine"); cpi*ipc < 0.999 || cpi*ipc > 1.001 {
		t.Errorf("CPI*IPC = %v, want 1", cpi*ipc)
	}
	if b, gb := get("MemBW-Bytes-Machine"), get("MemBW-Machine"); b != gb*1e9 {
		t.Errorf("MemBW-Bytes = %v, want %v", b, gb*1e9)
	}
	if r, w, tot := get("MemReadBW-Machine"), get("MemWriteBW-Machine"), get("MemBW-Machine"); r+w != tot {
		t.Errorf("read+write BW = %v, want %v", r+w, tot)
	}
	if hit, miss := get("LLC-HitRatio-HP"), get("LLC-MissRatio-HP"); hit+miss < 0.999 || hit+miss > 1.001 {
		t.Errorf("hit+miss ratio = %v, want 1", hit+miss)
	}
}

func TestExtractConfigMetricsReflectFeature(t *testing.T) {
	c := DefaultCatalog()
	cfgBase, res := evaluateMixed(t)

	cfgFeat := machine.DVFSCap(1.8).Apply(cfgBase)
	vBase := ExtractInto(make([]float64, c.Len()), c, cfgBase, res)
	vFeat := ExtractInto(make([]float64, c.Len()), c, cfgFeat, res)

	fBase, _ := vBase.Get("FreqRatio")
	fFeat, _ := vFeat.Get("FreqRatio")
	if fBase != 1 {
		t.Errorf("baseline FreqRatio = %v, want 1", fBase)
	}
	if fFeat >= fBase {
		t.Errorf("feature FreqRatio = %v, want < baseline", fFeat)
	}
}

func TestVectorGetUnknown(t *testing.T) {
	v := Vector{Names: []string{"a"}, Values: []float64{1}}
	if _, err := v.Get("b"); err == nil {
		t.Error("Get of unknown metric did not error")
	}
}

func TestLevelAndSourceStrings(t *testing.T) {
	if LevelMachine.String() != "Machine" || LevelHP.String() != "HP" {
		t.Error("Level.String wrong")
	}
	if SourcePerf.String() != "perf" || SourceTopdown.String() != "topdown" || SourceProc.String() != "/proc" {
		t.Error("Source.String wrong")
	}
	if !strings.HasPrefix(Level(9).String(), "Level(") {
		t.Error("unknown Level.String wrong")
	}
	if !strings.HasPrefix(Source(9).String(), "Source(") {
		t.Error("unknown Source.String wrong")
	}
}

func TestStdOf(t *testing.T) {
	if base, ok := StdOf("MIPS-Machine-Std"); !ok || base != "MIPS-Machine" {
		t.Errorf("StdOf(MIPS-Machine-Std) = %q, %v", base, ok)
	}
	if _, ok := StdOf("MIPS-Machine"); ok {
		t.Error("StdOf matched a non-Std metric")
	}
	if _, ok := StdOf("-Std"); ok {
		t.Error("StdOf matched a bare suffix")
	}
}

func TestWithVariability(t *testing.T) {
	base := DefaultCatalog()
	ext, err := WithVariability(base)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Len() + 2*len(VariabilityBases())
	if ext.Len() != want {
		t.Fatalf("extended catalog has %d metrics, want %d", ext.Len(), want)
	}
	d, err := ext.Lookup("IPC-HP-Std")
	if err != nil {
		t.Fatal(err)
	}
	if d.Level != LevelHP {
		t.Errorf("IPC-HP-Std level = %v, want HP", d.Level)
	}
	hasTemporal := false
	for _, tag := range d.Tags {
		if tag == "temporal" {
			hasTemporal = true
		}
	}
	if !hasTemporal {
		t.Error("variability metric lacks temporal tag")
	}
}

func TestExtractLeavesStdMetricsZero(t *testing.T) {
	ext, err := WithVariability(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	cfg, res := evaluateMixed(t)
	v := ExtractInto(make([]float64, ext.Len()), ext, cfg, res)
	got, err := v.Get("MIPS-Machine-Std")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("ExtractInto filled a Std metric (%v); the profiler owns those", got)
	}
}

func TestExtractIntoReusesBufferAndClearsStdSlots(t *testing.T) {
	c, err := WithVariability(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	cfg, res := evaluateMixed(t)

	fresh := ExtractInto(make([]float64, c.Len()), c, cfg, res)
	buf := make([]float64, c.Len())
	for i := range buf {
		buf[i] = math.NaN() // poison: every slot must be overwritten
	}
	reused := ExtractInto(buf, c, cfg, res)
	if &reused.Values[0] != &buf[0] {
		t.Fatal("ExtractInto did not alias the caller's buffer")
	}
	for i := range fresh.Values {
		if fresh.Values[i] != reused.Values[i] {
			t.Errorf("metric %s: reused buffer %v != fresh buffer %v",
				fresh.Names[i], reused.Values[i], fresh.Values[i])
		}
	}
}

func TestExtractIntoWrongLengthPanics(t *testing.T) {
	c := DefaultCatalog()
	cfg, res := evaluateMixed(t)
	defer func() {
		if recover() == nil {
			t.Error("short dst did not panic")
		}
	}()
	ExtractInto(make([]float64, c.Len()-1), c, cfg, res)
}

func TestExtractUnknownMetricPanics(t *testing.T) {
	// A catalog may carry names with no extractor (it is just a list of
	// defs), but extracting one must panic: the compiled plan marks them
	// opUnknown at NewCatalog time and the panic fires at use, exactly
	// like the old name-parsing switch.
	c, err := NewCatalog([]Def{{Name: "NoSuchMetric-Machine", Level: LevelMachine}})
	if err != nil {
		t.Fatal(err)
	}
	cfg, res := evaluateMixed(t)
	defer func() {
		if recover() == nil {
			t.Error("unknown metric did not panic at extraction")
		}
	}()
	ExtractInto(make([]float64, c.Len()), c, cfg, res)
}

func TestCatalogStdBase(t *testing.T) {
	c, err := WithVariability(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	i := c.Index("MIPS-Machine-Std")
	if i < 0 {
		t.Fatal("missing MIPS-Machine-Std")
	}
	if got, want := c.StdBase(i), c.Index("MIPS-Machine"); got != want {
		t.Errorf("StdBase(MIPS-Machine-Std) = %d, want %d", got, want)
	}
	if got := c.StdBase(c.Index("MIPS-Machine")); got != -1 {
		t.Errorf("StdBase of a non-Std metric = %d, want -1", got)
	}
	// A Std twin whose base is absent resolves to -1; the profiler turns
	// that into an error instead of a panic.
	orphan, err := NewCatalog([]Def{{Name: "Ghost-Machine-Std", Level: LevelMachine}})
	if err != nil {
		t.Fatal(err)
	}
	if got := orphan.StdBase(0); got != -1 {
		t.Errorf("StdBase of orphan Std metric = %d, want -1", got)
	}
}

func TestExtractIntoSteadyStateAllocs(t *testing.T) {
	// The profiler calls ExtractInto once per sample; with the compiled
	// plan and the shared name list it must not allocate at all.
	c := DefaultCatalog()
	cfg, res := evaluateMixed(t)
	dst := make([]float64, c.Len())
	allocs := testing.AllocsPerRun(50, func() {
		ExtractInto(dst, c, cfg, res)
	})
	if allocs != 0 {
		t.Errorf("ExtractInto allocates %.0f objects per call, want 0", allocs)
	}
}
