// Package fault is FLARE's deterministic fault-injection layer. The
// paper's value claim — a tiny replayed sample stays accurate and cheap —
// only holds in production if the pipeline and its durable store survive
// the failures a real datacenter substrate throws at them: torn writes,
// slow disks, dying machines, request floods. This package makes those
// failures *injectable and reproducible*: an Injector is configured with
// a Spec (rules keyed by named sites threaded through the store, metric
// database, dcsim, replayer, and server) and a seed, and the same seed
// always yields the byte-identical fault schedule, so a failure observed
// once can be replayed exactly in a test or a bisect.
//
// Determinism comes from per-site random streams: every site draws from
// its own rand.Rand seeded with seed ^ FNV-1a(site). Interleaving across
// sites therefore cannot perturb any site's decision sequence — only the
// per-site call order matters, and on the pipeline's deterministic paths
// that order is fixed.
//
// Three fault kinds cover the substrate failures FLARE cares about:
//
//   - KindError: the site reports an injected transient error
//     (wrapping ErrInjected), exercising retry and breaker paths.
//   - KindLatency: the site blocks for the rule's duration (a slow
//     disk or network hop), exercising timeouts and load shedding.
//   - KindCrash: the site aborts *mid-operation* with ErrCrash and the
//     caller must leave partial state behind (no cleanup), exercising
//     crash recovery exactly at the instrumented point.
//
// Every injected fault is counted in flare_fault_injected_total{site,kind}
// and appended to the injector's recorded schedule.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"flare/internal/obs"
)

// ErrInjected is the sentinel wrapped by every injected error fault.
var ErrInjected = errors.New("injected fault")

// ErrCrash is the sentinel wrapped by crash-point faults. Call sites that
// support crash points must abort immediately — no cleanup — so the
// partial state a real crash would leave behind is actually left behind.
var ErrCrash = errors.New("injected crash")

// Kind discriminates fault behaviours.
type Kind int

// Fault kinds.
const (
	KindError Kind = iota + 1
	KindLatency
	KindCrash
)

// String names the kind (also its spelling in spec strings).
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule arms one fault at one site. Exactly one of Rate and Nth selects
// when it fires: a rate fires probabilistically per call from the site's
// seeded stream, an Nth fires on exactly the Nth call (1-based) — the
// deterministic form crash-point tests want.
type Rule struct {
	Site    string        // named injection point, e.g. "store.wal.append"
	Kind    Kind          // what happens when the rule fires
	Rate    float64       // per-call probability in [0,1]; used when Nth == 0
	Nth     uint64        // fire on exactly this call number; 0 = rate-based
	Latency time.Duration // block duration for KindLatency
}

// Validate checks one rule.
func (r Rule) Validate() error {
	switch {
	case r.Site == "":
		return errors.New("fault: rule has empty site")
	case r.Kind < KindError || r.Kind > KindCrash:
		return fmt.Errorf("fault: rule for %s has invalid kind %d", r.Site, int(r.Kind))
	// Positive-form range check: NaN fails every comparison, so the
	// negated form is the one that also rejects @NaN specs.
	case r.Nth == 0 && !(r.Rate >= 0 && r.Rate <= 1):
		return fmt.Errorf("fault: rule for %s has rate %g outside [0,1]", r.Site, r.Rate)
	case r.Nth == 0 && r.Rate == 0:
		return fmt.Errorf("fault: rule for %s fires never (rate 0, no call number)", r.Site)
	case r.Kind == KindLatency && r.Latency <= 0:
		return fmt.Errorf("fault: latency rule for %s needs a positive duration", r.Site)
	}
	return nil
}

// Event is one recorded injection: the site, the per-site call number it
// fired on, and the kind. The sequence of events is the fault schedule;
// equal seeds and specs produce equal schedules.
type Event struct {
	Site string `json:"site"`
	Call uint64 `json:"call"`
	Kind string `json:"kind"`
}

// Fault is one site evaluation. The zero value means "no fault".
type Fault struct {
	Kind    Kind // 0 when nothing fired
	Site    string
	Call    uint64        // per-site call number that fired
	Latency time.Duration // for KindLatency
	// Roll is a deterministic uint64 drawn from the site's stream when
	// the fault fired, for callers that need to pick a victim (dcsim
	// picks the failing machine with it).
	Roll uint64
}

// Fired reports whether a fault was injected.
func (f Fault) Fired() bool { return f.Kind != 0 }

// siteState is the per-site decision stream.
type siteState struct {
	rules []Rule
	rng   *rand.Rand
	calls uint64
}

// Injector evaluates fault rules at named sites. All methods are safe for
// concurrent use and safe on a nil receiver (a nil *Injector injects
// nothing), so production code can thread one unconditionally.
type Injector struct {
	seed int64
	reg  *obs.Registry

	mu    sync.Mutex
	sites map[string]*siteState
	sched []Event
}

// New builds an injector from validated rules. reg receives the
// flare_fault_* counters; nil records nothing.
func New(rules []Rule, seed int64, reg *obs.Registry) (*Injector, error) {
	in := &Injector{seed: seed, reg: reg, sites: make(map[string]*siteState)}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		st := in.sites[r.Site]
		if st == nil {
			st = &siteState{rng: rand.New(rand.NewSource(seed ^ siteSeed(r.Site)))}
			in.sites[r.Site] = st
		}
		st.rules = append(st.rules, r)
	}
	return in, nil
}

// siteSeed folds a site name into a seed offset (FNV-1a).
func siteSeed(site string) int64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return int64(h.Sum64())
}

// Hit evaluates the site's rules against its next call number and returns
// the first fault that fires (rules are evaluated in spec order). Sites
// with no rules return the zero Fault without consuming randomness.
// Latency faults are NOT slept here — use Err, or sleep f.Latency at the
// call site — so simulators can map them onto simulated time.
func (in *Injector) Hit(site string) Fault {
	if in == nil {
		return Fault{}
	}
	in.mu.Lock()
	st, ok := in.sites[site]
	if !ok {
		in.mu.Unlock()
		return Fault{}
	}
	st.calls++
	call := st.calls
	var fired *Rule
	for i := range st.rules {
		r := &st.rules[i]
		if r.Nth > 0 {
			if call == r.Nth {
				fired = r
				break
			}
			continue
		}
		if st.rng.Float64() < r.Rate {
			fired = r
			break
		}
	}
	if fired == nil {
		in.mu.Unlock()
		return Fault{}
	}
	f := Fault{Kind: fired.Kind, Site: site, Call: call,
		Latency: fired.Latency, Roll: st.rng.Uint64()}
	in.sched = append(in.sched, Event{Site: site, Call: call, Kind: fired.Kind.String()})
	in.mu.Unlock()

	obs.FaultInjected.In(in.reg, site, f.Kind.String()).Inc()
	return f
}

// Err evaluates the site and renders the outcome as the error the
// operation should return: nil when nothing fired, a wrapped ErrInjected
// for error faults, a wrapped ErrCrash for crash faults. Latency faults
// block for their duration and then return nil.
func (in *Injector) Err(site string) error {
	f := in.Hit(site)
	switch f.Kind {
	case KindError:
		return fmt.Errorf("fault: %s (call %d): %w", site, f.Call, ErrInjected)
	case KindLatency:
		time.Sleep(f.Latency)
		return nil
	case KindCrash:
		return fmt.Errorf("fault: %s (call %d): %w", site, f.Call, ErrCrash)
	default:
		return nil
	}
}

// Schedule returns a copy of the recorded fault schedule, in injection
// order.
func (in *Injector) Schedule() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.sched...)
}

// ScheduleString renders the schedule one event per line
// ("site#call kind"), the canonical form determinism tests byte-compare.
func (in *Injector) ScheduleString() string {
	var b strings.Builder
	for _, e := range in.Schedule() {
		fmt.Fprintf(&b, "%s#%d %s\n", e.Site, e.Call, e.Kind)
	}
	return b.String()
}

// Injected returns how many faults have been injected so far.
func (in *Injector) Injected() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.sched)
}
