package workload

import "fmt"

// HP job short codes (Table 3).
const (
	DataAnalytics     = "DA"  // Apache Hadoop with Mahout, TrainNB phase
	DataCaching       = "DC"  // memcached
	DataServing       = "DS"  // Apache Cassandra
	GraphAnalytics    = "GA"  // Apache Spark
	InMemoryAnalytics = "IA"  // Apache Spark
	MediaStreaming    = "MS"  // Nginx
	WebSearch         = "WSC" // Apache Solr
	WebServing        = "WSV" // MySQL + memcached + Nginx + PHP
)

// LP job names (SPEC CPU2006 subset; four copies fill a 4-vCPU container).
const (
	Perlbench  = "perlbench"  // 400.perlbench
	Sjeng      = "sjeng"      // 458.sjeng
	Libquantum = "libquantum" // 462.libquantum
	Xalancbmk  = "xalancbmk"  // 483.xalancbmk
	Omnetpp    = "omnetpp"    // 471.omnetpp
	Mcf        = "mcf"        // 429.mcf
)

// Catalog is an immutable set of job profiles indexed by name.
type Catalog struct {
	profiles []Profile
	byName   map[string]int
}

// NewCatalog builds a catalog from the given profiles, validating each.
// It returns an error on an invalid profile or a duplicate name.
func NewCatalog(profiles []Profile) (*Catalog, error) {
	c := &Catalog{
		profiles: make([]Profile, len(profiles)),
		byName:   make(map[string]int, len(profiles)),
	}
	copy(c.profiles, profiles)
	for i, p := range c.profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if _, dup := c.byName[p.Name]; dup {
			return nil, fmt.Errorf("workload: duplicate profile name %q", p.Name)
		}
		c.byName[p.Name] = i
	}
	return c, nil
}

// Lookup returns the profile with the given name.
func (c *Catalog) Lookup(name string) (Profile, error) {
	i, ok := c.byName[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown job %q", name)
	}
	return c.profiles[i], nil
}

// Profiles returns a copy of all profiles in catalog order.
func (c *Catalog) Profiles() []Profile {
	out := make([]Profile, len(c.profiles))
	copy(out, c.profiles)
	return out
}

// HPJobs returns the High Priority profiles in catalog order.
func (c *Catalog) HPJobs() []Profile {
	var out []Profile
	for _, p := range c.profiles {
		if p.Class == ClassHP {
			out = append(out, p)
		}
	}
	return out
}

// Len returns the number of profiles.
func (c *Catalog) Len() int { return len(c.profiles) }

// DefaultCatalog returns the paper's Table 3 job mix: eight CloudSuite HP
// services plus six SPEC CPU2006 LP jobs. Profile numbers are calibrated
// against the published CloudSuite and SPEC CPU2006 characterisation
// studies; MIPS figures assume one 4-vCPU instance alone on the default
// machine shape at max clock.
//
// The function builds a fresh catalog on every call so callers can never
// alias each other's state.
func DefaultCatalog() *Catalog {
	c, err := NewCatalog(defaultProfiles())
	if err != nil {
		// The default profiles are compile-time constants validated by
		// tests; failure here is a programming error.
		panic(fmt.Sprintf("workload: default catalog invalid: %v", err))
	}
	return c
}

func defaultProfiles() []Profile {
	return []Profile{
		// ------------------------- HP services -------------------------
		{
			Name: DataAnalytics, Long: "Data Analytics (Hadoop/Mahout TrainNB)", Class: ClassHP,
			MemoryGB: 16, InherentMIPS: 10400, BaseIPC: 0.90,
			WorkingSetMB: 20, LLCAPKI: 14, ColdMissFrac: 0.10, MissCurve: 1.6,
			FrontendBound: 0.18, BadSpeculation: 0.07, BackendBound: 0.47, Retiring: 0.28,
			BranchMPKI: 4.2, L1MPKI: 28, L2MPKI: 16, ALUFrac: 0.42,
			FreqSensitivity: 0.55, SMTYield: 0.66,
			PhaseVariability: 0.30,
			NetworkMbps:      180, DiskMBps: 55,
			CtxSwitchPerSec: 2800, PageFaultPerSec: 900,
		},
		{
			Name: DataCaching, Long: "Data Caching (memcached)", Class: ClassHP,
			MemoryGB: 4, InherentMIPS: 8100, BaseIPC: 0.70,
			WorkingSetMB: 8, LLCAPKI: 10, ColdMissFrac: 0.22, MissCurve: 2.2,
			FrontendBound: 0.34, BadSpeculation: 0.06, BackendBound: 0.34, Retiring: 0.26,
			BranchMPKI: 3.0, L1MPKI: 22, L2MPKI: 11, ALUFrac: 0.30,
			FreqSensitivity: 0.45, SMTYield: 0.74,
			PhaseVariability: 0.65,
			NetworkMbps:      950, DiskMBps: 2,
			CtxSwitchPerSec: 21000, PageFaultPerSec: 120,
		},
		{
			Name: DataServing, Long: "Data Serving (Cassandra)", Class: ClassHP,
			MemoryGB: 16, InherentMIPS: 7500, BaseIPC: 0.65,
			WorkingSetMB: 24, LLCAPKI: 19, ColdMissFrac: 0.14, MissCurve: 1.4,
			FrontendBound: 0.26, BadSpeculation: 0.07, BackendBound: 0.42, Retiring: 0.25,
			BranchMPKI: 4.8, L1MPKI: 31, L2MPKI: 18, ALUFrac: 0.33,
			FreqSensitivity: 0.42, SMTYield: 0.70,
			PhaseVariability: 0.55,
			NetworkMbps:      420, DiskMBps: 140,
			CtxSwitchPerSec: 9500, PageFaultPerSec: 1500,
		},
		{
			Name: GraphAnalytics, Long: "Graph Analytics (Spark)", Class: ClassHP,
			MemoryGB: 4, InherentMIPS: 6400, BaseIPC: 0.55,
			WorkingSetMB: 40, LLCAPKI: 26, ColdMissFrac: 0.12, MissCurve: 1.1,
			FrontendBound: 0.12, BadSpeculation: 0.05, BackendBound: 0.60, Retiring: 0.23,
			BranchMPKI: 6.5, L1MPKI: 38, L2MPKI: 25, ALUFrac: 0.36,
			FreqSensitivity: 0.30, SMTYield: 0.80,
			PhaseVariability: 0.25,
			NetworkMbps:      160, DiskMBps: 18,
			CtxSwitchPerSec: 3600, PageFaultPerSec: 2400,
		},
		{
			Name: InMemoryAnalytics, Long: "In-Memory Analytics (Spark)", Class: ClassHP,
			MemoryGB: 4, InherentMIPS: 9300, BaseIPC: 0.80,
			WorkingSetMB: 30, LLCAPKI: 17, ColdMissFrac: 0.10, MissCurve: 1.5,
			FrontendBound: 0.14, BadSpeculation: 0.06, BackendBound: 0.50, Retiring: 0.30,
			BranchMPKI: 3.4, L1MPKI: 26, L2MPKI: 14, ALUFrac: 0.48,
			FreqSensitivity: 0.60, SMTYield: 0.68,
			PhaseVariability: 0.30,
			NetworkMbps:      210, DiskMBps: 8,
			CtxSwitchPerSec: 3100, PageFaultPerSec: 1100,
		},
		{
			Name: MediaStreaming, Long: "Media Streaming (Nginx)", Class: ClassHP,
			MemoryGB: 8, InherentMIPS: 10900, BaseIPC: 0.94,
			WorkingSetMB: 5, LLCAPKI: 6, ColdMissFrac: 0.30, MissCurve: 2.6,
			FrontendBound: 0.24, BadSpeculation: 0.05, BackendBound: 0.33, Retiring: 0.38,
			BranchMPKI: 2.1, L1MPKI: 14, L2MPKI: 6, ALUFrac: 0.26,
			FreqSensitivity: 0.35, SMTYield: 0.82,
			PhaseVariability: 0.70,
			NetworkMbps:      2400, DiskMBps: 260,
			CtxSwitchPerSec: 15000, PageFaultPerSec: 60,
		},
		{
			Name: WebSearch, Long: "Web Search (Solr)", Class: ClassHP,
			MemoryGB: 12, InherentMIPS: 8700, BaseIPC: 0.75,
			WorkingSetMB: 28, LLCAPKI: 13, ColdMissFrac: 0.12, MissCurve: 1.7,
			FrontendBound: 0.36, BadSpeculation: 0.08, BackendBound: 0.32, Retiring: 0.24,
			BranchMPKI: 5.6, L1MPKI: 30, L2MPKI: 15, ALUFrac: 0.34,
			FreqSensitivity: 0.58, SMTYield: 0.69,
			PhaseVariability: 0.60,
			NetworkMbps:      310, DiskMBps: 35,
			CtxSwitchPerSec: 7200, PageFaultPerSec: 700,
		},
		{
			Name: WebServing, Long: "Web Serving (MySQL/memcached/Nginx/PHP)", Class: ClassHP,
			MemoryGB: 8, InherentMIPS: 7000, BaseIPC: 0.60,
			WorkingSetMB: 12, LLCAPKI: 9, ColdMissFrac: 0.18, MissCurve: 1.9,
			FrontendBound: 0.38, BadSpeculation: 0.09, BackendBound: 0.30, Retiring: 0.23,
			BranchMPKI: 7.1, L1MPKI: 27, L2MPKI: 12, ALUFrac: 0.28,
			FreqSensitivity: 0.52, SMTYield: 0.72,
			PhaseVariability: 0.65,
			NetworkMbps:      520, DiskMBps: 45,
			CtxSwitchPerSec: 18500, PageFaultPerSec: 400,
		},

		// ---------------------- LP batch jobs -------------------------
		// Profiles describe one 4-vCPU container running four copies.
		{
			Name: Perlbench, Long: "400.perlbench x4", Class: ClassLP,
			MemoryGB: 2, InherentMIPS: 17400, BaseIPC: 1.50,
			WorkingSetMB: 4, LLCAPKI: 2.5, ColdMissFrac: 0.08, MissCurve: 2.8,
			FrontendBound: 0.22, BadSpeculation: 0.12, BackendBound: 0.18, Retiring: 0.48,
			BranchMPKI: 8.8, L1MPKI: 17, L2MPKI: 4, ALUFrac: 0.58,
			FreqSensitivity: 0.90, SMTYield: 0.60,
			PhaseVariability: 0.10,
			NetworkMbps:      0, DiskMBps: 1,
			CtxSwitchPerSec: 40, PageFaultPerSec: 30,
		},
		{
			Name: Sjeng, Long: "458.sjeng x4", Class: ClassLP,
			MemoryGB: 1, InherentMIPS: 13900, BaseIPC: 1.20,
			WorkingSetMB: 2, LLCAPKI: 1.4, ColdMissFrac: 0.06, MissCurve: 3.0,
			FrontendBound: 0.16, BadSpeculation: 0.20, BackendBound: 0.18, Retiring: 0.46,
			BranchMPKI: 11.5, L1MPKI: 9, L2MPKI: 2, ALUFrac: 0.62,
			FreqSensitivity: 0.94, SMTYield: 0.58,
			PhaseVariability: 0.05,
			NetworkMbps:      0, DiskMBps: 0.5,
			CtxSwitchPerSec: 30, PageFaultPerSec: 15,
		},
		{
			Name: Libquantum, Long: "462.libquantum x4", Class: ClassLP,
			MemoryGB: 1, InherentMIPS: 5800, BaseIPC: 0.50,
			WorkingSetMB: 64, LLCAPKI: 34, ColdMissFrac: 0.72, MissCurve: 0.7,
			FrontendBound: 0.05, BadSpeculation: 0.02, BackendBound: 0.73, Retiring: 0.20,
			BranchMPKI: 1.2, L1MPKI: 44, L2MPKI: 36, ALUFrac: 0.22,
			FreqSensitivity: 0.15, SMTYield: 0.88,
			PhaseVariability: 0.05,
			NetworkMbps:      0, DiskMBps: 0.5,
			CtxSwitchPerSec: 25, PageFaultPerSec: 50,
		},
		{
			Name: Xalancbmk, Long: "483.xalancbmk x4", Class: ClassLP,
			MemoryGB: 2, InherentMIPS: 12800, BaseIPC: 1.10,
			WorkingSetMB: 12, LLCAPKI: 10, ColdMissFrac: 0.10, MissCurve: 1.8,
			FrontendBound: 0.20, BadSpeculation: 0.10, BackendBound: 0.32, Retiring: 0.38,
			BranchMPKI: 6.4, L1MPKI: 24, L2MPKI: 9, ALUFrac: 0.44,
			FreqSensitivity: 0.72, SMTYield: 0.64,
			PhaseVariability: 0.15,
			NetworkMbps:      0, DiskMBps: 1,
			CtxSwitchPerSec: 35, PageFaultPerSec: 60,
		},
		{
			Name: Omnetpp, Long: "471.omnetpp x4", Class: ClassLP,
			MemoryGB: 2, InherentMIPS: 5200, BaseIPC: 0.45,
			WorkingSetMB: 36, LLCAPKI: 21, ColdMissFrac: 0.15, MissCurve: 1.0,
			FrontendBound: 0.10, BadSpeculation: 0.08, BackendBound: 0.62, Retiring: 0.20,
			BranchMPKI: 7.9, L1MPKI: 33, L2MPKI: 20, ALUFrac: 0.30,
			FreqSensitivity: 0.28, SMTYield: 0.82,
			PhaseVariability: 0.20,
			NetworkMbps:      0, DiskMBps: 0.5,
			CtxSwitchPerSec: 28, PageFaultPerSec: 80,
		},
		{
			Name: Mcf, Long: "429.mcf x4", Class: ClassLP,
			MemoryGB: 4, InherentMIPS: 4100, BaseIPC: 0.35,
			WorkingSetMB: 48, LLCAPKI: 29, ColdMissFrac: 0.25, MissCurve: 0.9,
			FrontendBound: 0.05, BadSpeculation: 0.04, BackendBound: 0.74, Retiring: 0.17,
			BranchMPKI: 9.3, L1MPKI: 41, L2MPKI: 29, ALUFrac: 0.24,
			FreqSensitivity: 0.18, SMTYield: 0.86,
			PhaseVariability: 0.10,
			NetworkMbps:      0, DiskMBps: 0.5,
			CtxSwitchPerSec: 22, PageFaultPerSec: 120,
		},
	}
}
