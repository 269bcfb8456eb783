// Package dcsim simulates the paper's evaluation datacenter (Sec 5.1): a
// rack of homogeneous machines hosting containerised HP and LP jobs,
// scheduled greedily onto the least-utilised machine without overcommit.
// Its product is the *scenario population*: every distinct job colocation
// observed on any machine during the trace, the raw material FLARE's
// Analyzer consumes.
//
// Jobs are modelled as scale-out deployments (paper Sec 5.1: "instances of
// a job are identical processes which run in a distributed manner to share
// the loads"). Each job's fleet-wide instance count performs a slow
// mean-reverting random walk as simulated users resize their services;
// scale-ups place instances on the least-utilised machine, scale-downs
// evict from the most-loaded machine hosting the job. Machines therefore
// carry similar, slowly churning mixes of many job types — exactly the
// regime in which a datacenter's colocation population stays in the
// hundreds (paper: 895) while still covering a wide occupancy range
// (Fig 3a).
package dcsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"flare/internal/clustertrace"
	"flare/internal/fault"
	"flare/internal/machine"
	"flare/internal/mathx"
	"flare/internal/obs"
	"flare/internal/scenario"
	"flare/internal/workload"
)

// Policy selects the scheduler's placement rule.
type Policy int

// Placement policies.
const (
	// PolicyLeastUtilised places on the machine with the most free vCPUs
	// (the paper's greedy load-balancing scheduler).
	PolicyLeastUtilised Policy = iota + 1
	// PolicyFirstFit packs instances onto the lowest-indexed machine with
	// room (bin-packing; concentrates load and widens the occupancy
	// spread).
	PolicyFirstFit
	// PolicyRandom places on a uniformly random machine with room.
	PolicyRandom
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyLeastUtilised:
		return "least-utilised"
	case PolicyFirstFit:
		return "first-fit"
	case PolicyRandom:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterises a datacenter simulation.
type Config struct {
	Machines int           // number of machines in the evaluation rack
	Shape    machine.Shape // machine SKU (homogeneous)
	Catalog  *workload.Catalog

	// Scheduler selects the placement policy; the zero value means
	// PolicyLeastUtilised (the paper's scheduler).
	Scheduler Policy

	// ResizesPerJobPerDay is the mean rate at which each deployment's
	// instance count changes (the paper's jobs run >= 30 minutes, so
	// resize cadence is slow relative to measurement windows).
	ResizesPerJobPerDay float64
	// TargetHPInstances / TargetLPInstances are the mean fleet-wide
	// instance counts each HP/LP deployment reverts toward.
	TargetHPInstances float64
	TargetLPInstances float64
	// MaxResizeStep bounds how many instances one resize adds or removes.
	MaxResizeStep int
	// Duration is the simulated wall-clock span of the trace.
	Duration time.Duration
	// Seed drives all randomness; equal seeds give identical traces.
	Seed int64
	// RecordEvents additionally captures every placement/eviction as a
	// cluster-trace task event (Trace.Events), exportable with
	// clustertrace.WriteCSV and replayable with clustertrace.Replay.
	RecordEvents bool

	// Faults optionally injects machine failures. After every resize
	// event the site "dcsim.machine.fail" is evaluated; when it fires,
	// the fault's Roll picks the victim machine, whose instances are all
	// evicted at once and rescheduled across the surviving machines (the
	// victim rejoins the rack empty, like a repaired host). Because the
	// injector's per-site streams are independent of the simulation rng,
	// the trace with faults armed is still fully determined by
	// (Seed, fault seed, fault spec). A nil injector injects nothing.
	Faults *fault.Injector
}

// DefaultConfig returns a configuration tuned to produce a scenario
// population comparable to the paper's (895 distinct colocations from one
// rack of eight machines).
func DefaultConfig() Config {
	return Config{
		Machines:            8,
		Shape:               machine.DefaultShape(),
		Catalog:             workload.DefaultCatalog(),
		ResizesPerJobPerDay: 1.5,
		TargetHPInstances:   6,
		TargetLPInstances:   4,
		MaxResizeStep:       2,
		Duration:            28 * 24 * time.Hour,
		Seed:                1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Machines <= 0:
		return errors.New("dcsim: need at least one machine")
	case c.Catalog == nil || c.Catalog.Len() == 0:
		return errors.New("dcsim: empty job catalog")
	case c.ResizesPerJobPerDay <= 0:
		return errors.New("dcsim: non-positive resize rate")
	case c.TargetHPInstances <= 0:
		return errors.New("dcsim: non-positive HP instance target")
	case c.TargetLPInstances < 0:
		return errors.New("dcsim: negative LP instance target")
	case c.MaxResizeStep <= 0:
		return errors.New("dcsim: non-positive resize step")
	case c.Duration <= 0:
		return errors.New("dcsim: non-positive duration")
	case c.Scheduler != 0 && (c.Scheduler < PolicyLeastUtilised || c.Scheduler > PolicyRandom):
		return fmt.Errorf("dcsim: invalid scheduler policy %d", int(c.Scheduler))
	}
	return c.Shape.Validate()
}

// Trace is the output of a simulation run.
type Trace struct {
	Scenarios *scenario.Set // deduplicated colocation population
	Stats     Stats         // operational statistics
	// PerMachine[i] lists the distinct scenario IDs observed on machine i,
	// in first-observation order. A canary-cluster evaluation (WSMeter
	// style) samples machines and evaluates exactly these scenarios.
	PerMachine [][]int
	// Events is the task-event log (only when Config.RecordEvents).
	Events []clustertrace.Event
}

// Stats summarises a simulation run.
type Stats struct {
	Resizes         int           // deployment resize events processed
	Scheduled       int           // instances placed
	Evicted         int           // instances removed by scale-downs
	Rejected        int           // instances denied for lack of capacity
	Transitions     int           // machine-state changes observed
	MachineFailures int           // injected machine failures
	FailedInstances int           // instances displaced by machine failures
	Rescheduled     int           // displaced instances placed on survivors
	SimulatedSpan   time.Duration // trace length
}

// Run simulates the datacenter and returns its scenario population. It
// has no side effects: publish the run's telemetry with Stats.Record.
func Run(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := newSim(cfg)
	s.run()
	return &Trace{
		Scenarios:  s.scenarios,
		Stats:      s.stats,
		PerMachine: s.perMachine,
		Events:     s.events,
	}, nil
}

// Record publishes a run's scheduler activity and its scenario count to
// reg, labelled by placement policy (the zero value means
// PolicyLeastUtilised, as in Config.Scheduler), so simulation work shows
// up at /metrics alongside the pipeline stages it feeds.
func (st Stats) Record(reg *obs.Registry, policy Policy, scenarios int) {
	if policy == 0 {
		policy = PolicyLeastUtilised
	}
	add := func(c *obs.Counter, v int) { c.Add(uint64(v)) }
	lbl := policy.String()
	add(reg.Counter("flare_dcsim_resizes_total", "deployment resize events processed", "policy", lbl), st.Resizes)
	add(reg.Counter("flare_dcsim_placements_total", "instances placed on machines", "policy", lbl), st.Scheduled)
	add(reg.Counter("flare_dcsim_evictions_total", "instances removed by scale-downs", "policy", lbl), st.Evicted)
	add(reg.Counter("flare_dcsim_rejections_total", "placements denied for lack of capacity", "policy", lbl), st.Rejected)
	add(reg.Counter("flare_dcsim_transitions_total", "machine-state changes observed", "policy", lbl), st.Transitions)
	add(reg.Counter("flare_dcsim_machine_failures_total", "injected machine failures", "policy", lbl), st.MachineFailures)
	add(reg.Counter("flare_dcsim_failed_instances_total", "instances displaced by machine failures", "policy", lbl), st.FailedInstances)
	add(reg.Counter("flare_dcsim_reschedules_total", "displaced instances placed on surviving machines", "policy", lbl), st.Rescheduled)
	reg.Gauge("flare_dcsim_scenarios",
		"distinct colocation scenarios produced by the last simulation run",
		"policy", lbl).Set(float64(scenarios))
}

// event is one deployment resize occurrence.
type event struct {
	at  time.Duration
	job int // catalog profile index
	seq int // tiebreaker for determinism
}

// eventQueue is a min-heap on (at, seq).
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// machineState tracks the jobs resident on one machine.
type machineState struct {
	jobs      map[string]int // job name -> instance count
	usedVCPUs int
}

type sim struct {
	cfg        Config
	rng        *rand.Rand
	queue      eventQueue
	seq        int
	machines   []machineState
	profiles   []workload.Profile
	scenarios  *scenario.Set
	stats      Stats
	vcpuCap    int
	perMachine [][]int        // distinct scenario IDs seen per machine
	seenOn     []map[int]bool // dedup helper for perMachine
	events     []clustertrace.Event
	now        time.Duration // current simulation time for event stamps
}

func newSim(cfg Config) *sim {
	s := &sim{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		machines:  make([]machineState, cfg.Machines),
		profiles:  cfg.Catalog.Profiles(),
		scenarios: scenario.NewSet(),
		vcpuCap:   machine.BaselineConfig(cfg.Shape).VCPUs(),
	}
	s.perMachine = make([][]int, cfg.Machines)
	s.seenOn = make([]map[int]bool, cfg.Machines)
	for i := range s.machines {
		s.machines[i].jobs = make(map[string]int)
		s.seenOn[i] = make(map[int]bool)
	}
	return s
}

func (s *sim) push(e event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.queue, e)
}

// run seeds each deployment near its target size, then processes resize
// events until the trace ends.
func (s *sim) run() {
	for j, p := range s.profiles {
		initial := int(s.target(p)) - 1 + s.rng.Intn(3)
		for k := 0; k < initial; k++ {
			s.scaleUp(p.Name, 1)
		}
		s.push(event{at: s.nextGap(), job: j})
	}

	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(event)
		if e.at > s.cfg.Duration {
			break
		}
		s.now = e.at
		s.handleResize(e)
		if f := s.cfg.Faults.Hit("dcsim.machine.fail"); f.Fired() {
			s.failMachine(int(f.Roll % uint64(len(s.machines))))
		}
		s.push(event{at: e.at + s.nextGap(), job: e.job})
	}
	s.stats.SimulatedSpan = s.cfg.Duration
}

func (s *sim) nextGap() time.Duration {
	days := s.rng.ExpFloat64() / s.cfg.ResizesPerJobPerDay
	return time.Duration(days * 24 * float64(time.Hour))
}

// target returns the mean fleet size a deployment reverts toward.
func (s *sim) target(p workload.Profile) float64 {
	if p.IsHP() {
		return s.cfg.TargetHPInstances
	}
	return s.cfg.TargetLPInstances
}

// handleResize grows or shrinks one deployment. The direction is a
// mean-reverting coin flip: deployments above target tend to shrink,
// below target tend to grow, so fleet sizes wander over a band of
// utilisations without drifting off to zero or saturation.
func (s *sim) handleResize(e event) {
	s.stats.Resizes++
	p := s.profiles[e.job]
	current := s.deploymentSize(p.Name)
	tgt := s.target(p)

	pUp := mathx.Clamp(0.5+0.35*(tgt-float64(current))/(tgt+1), 0.05, 0.95)
	step := 1 + s.rng.Intn(s.cfg.MaxResizeStep)
	if s.rng.Float64() < pUp {
		s.scaleUp(p.Name, step)
	} else {
		s.scaleDown(p.Name, step)
	}
}

// deploymentSize returns the fleet-wide instance count of a job.
func (s *sim) deploymentSize(job string) int {
	var n int
	for i := range s.machines {
		n += s.machines[i].jobs[job]
	}
	return n
}

// scaleUp places count instances one at a time according to the
// configured scheduler policy; saturation denies the remainder.
func (s *sim) scaleUp(job string, count int) {
	for i := 0; i < count; i++ {
		m := s.pickMachine()
		if m < 0 {
			s.stats.Rejected++
			continue
		}
		s.machines[m].jobs[job]++
		s.machines[m].usedVCPUs += workload.InstanceVCPUs
		s.stats.Scheduled++
		s.record(m, job, clustertrace.Schedule)
		s.observe(m)
	}
}

// scaleDown evicts count instances, each from the most-loaded machine
// hosting the job (draining the hottest machine first).
func (s *sim) scaleDown(job string, count int) {
	for i := 0; i < count; i++ {
		m := s.mostLoadedHosting(job)
		if m < 0 {
			return // deployment already empty
		}
		st := &s.machines[m]
		st.jobs[job]--
		if st.jobs[job] == 0 {
			delete(st.jobs, job)
		}
		st.usedVCPUs -= workload.InstanceVCPUs
		s.stats.Evicted++
		s.record(m, job, clustertrace.Finish)
		s.observe(m)
	}
}

// pickMachine returns the target machine for one instance under the
// configured policy, or -1 when the rack is full. Ties break to the
// lowest index for determinism.
func (s *sim) pickMachine() int { return s.pickMachineExcluding(-1) }

// pickMachineExcluding is pickMachine with one machine barred from
// placement (the failed machine during reschedules); -1 bars nothing.
func (s *sim) pickMachineExcluding(exclude int) int {
	switch s.cfg.Scheduler {
	case PolicyFirstFit:
		for i := range s.machines {
			if i != exclude && s.vcpuCap-s.machines[i].usedVCPUs >= workload.InstanceVCPUs {
				return i
			}
		}
		return -1
	case PolicyRandom:
		var candidates []int
		for i := range s.machines {
			if i != exclude && s.vcpuCap-s.machines[i].usedVCPUs >= workload.InstanceVCPUs {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) == 0 {
			return -1
		}
		return candidates[s.rng.Intn(len(candidates))]
	default: // PolicyLeastUtilised
		best, bestFree := -1, -1
		for i := range s.machines {
			free := s.vcpuCap - s.machines[i].usedVCPUs
			if i != exclude && free >= workload.InstanceVCPUs && free > bestFree {
				best, bestFree = i, free
			}
		}
		return best
	}
}

// failMachine simulates an abrupt machine loss: everything on the victim
// is evicted at once and the displaced instances are rescheduled across
// the surviving machines under the configured policy. The victim rejoins
// the rack empty. Jobs are processed in sorted-name order so the
// reschedule sequence (and hence the trace) is deterministic.
func (s *sim) failMachine(victim int) {
	s.stats.MachineFailures++
	st := &s.machines[victim]
	jobs := make([]string, 0, len(st.jobs))
	for job := range st.jobs {
		jobs = append(jobs, job)
	}
	sort.Strings(jobs)
	counts := make([]int, len(jobs))
	for i, job := range jobs {
		counts[i] = st.jobs[job]
		delete(st.jobs, job)
		st.usedVCPUs -= counts[i] * workload.InstanceVCPUs
		s.stats.FailedInstances += counts[i]
		s.recordN(victim, job, clustertrace.Evict, counts[i])
	}
	for i, job := range jobs {
		for k := 0; k < counts[i]; k++ {
			m := s.pickMachineExcluding(victim)
			if m < 0 {
				s.stats.Rejected++
				continue
			}
			s.machines[m].jobs[job]++
			s.machines[m].usedVCPUs += workload.InstanceVCPUs
			s.stats.Rescheduled++
			s.record(m, job, clustertrace.Schedule)
			s.observe(m)
		}
	}
}

// mostLoadedHosting returns the machine with the least free vCPUs among
// those hosting the job, or -1. Ties break to the lowest index.
func (s *sim) mostLoadedHosting(job string) int {
	best, bestUsed := -1, -1
	for i := range s.machines {
		if s.machines[i].jobs[job] == 0 {
			continue
		}
		if s.machines[i].usedVCPUs > bestUsed {
			best, bestUsed = i, s.machines[i].usedVCPUs
		}
	}
	return best
}

// record appends a single-instance task event when event recording is
// enabled.
func (s *sim) record(m int, job string, typ clustertrace.EventType) {
	s.recordN(m, job, typ, 1)
}

// recordN appends a task event covering n instances when event recording
// is enabled.
func (s *sim) recordN(m int, job string, typ clustertrace.EventType, n int) {
	if !s.cfg.RecordEvents {
		return
	}
	s.events = append(s.events, clustertrace.Event{
		TimestampUs: s.now.Microseconds(),
		Machine:     m,
		Job:         job,
		Type:        typ,
		Count:       n,
	})
}

// observe records the machine's current colocation (if non-empty) into
// the scenario population.
func (s *sim) observe(m int) {
	s.stats.Transitions++
	st := &s.machines[m]
	if len(st.jobs) == 0 {
		return
	}
	sc, err := scenario.New(scenario.PlacementsFromCounts(st.jobs))
	if err != nil {
		// Unreachable: placements are non-empty with positive counts.
		panic(fmt.Sprintf("dcsim: invalid observed scenario: %v", err))
	}
	id := s.scenarios.Add(sc)
	if !s.seenOn[m][id] {
		s.seenOn[m][id] = true
		s.perMachine[m] = append(s.perMachine[m], id)
	}
}
