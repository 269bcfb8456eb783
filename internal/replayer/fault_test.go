package replayer

import (
	"context"
	"errors"
	"testing"
	"time"

	"flare/internal/fault"
	"flare/internal/machine"
	"flare/internal/obs"
	"flare/internal/retry"
)

// faultOptions returns DefaultOptions armed with spec and fast retries.
func faultOptions(t *testing.T, spec string) Options {
	t.Helper()
	in, err := fault.New(fault.MustParseSpec(spec), 1, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Injector = in
	opts.Retry = retry.Policy{
		MaxAttempts: 4,
		Registry:    obs.NewRegistry(),
		Sleep:       func(time.Duration) {},
	}
	return opts
}

// TestReplayRetriesInjectedFault injects one transient replay failure and
// verifies the retried estimate is byte-identical to a fault-free run:
// faults are evaluated before the scenario model consumes randomness, so
// retries cannot perturb measurements.
func TestReplayRetriesInjectedFault(t *testing.T) {
	f := testFixture(t)
	feat := machine.SMTOff()
	clean, err := EstimateAllJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := faultOptions(t, "replay.scenario=error#1")
	faulty, err := EstimateAllJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, opts)
	if err != nil {
		t.Fatalf("estimate with one transient fault = %v, want absorbed", err)
	}
	if got := opts.Injector.Injected(); got != 1 {
		t.Fatalf("injected = %d, want 1", got)
	}
	if faulty.ReductionPct != clean.ReductionPct {
		t.Errorf("retried estimate %v != fault-free estimate %v", faulty.ReductionPct, clean.ReductionPct)
	}
	if faulty.ScenariosReplayed != clean.ScenariosReplayed {
		t.Errorf("replay counts differ: %d vs %d", faulty.ScenariosReplayed, clean.ScenariosReplayed)
	}
}

// TestReplayPermanentOutageSurfaces verifies a total testbed outage is
// reported (wrapping the injected sentinel) once retries are exhausted.
func TestReplayPermanentOutageSurfaces(t *testing.T) {
	f := testFixture(t)
	opts := faultOptions(t, "replay.scenario=error@1")
	_, err := EstimateAllJob(context.Background(), f.an, f.cat, f.inh, f.cfg, machine.SMTOff(), opts)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("estimate during outage = %v, want wrapped ErrInjected", err)
	}
}

// TestPerJobRetriesInjectedFault covers the per-job path's retry wiring.
func TestPerJobRetriesInjectedFault(t *testing.T) {
	f := testFixture(t)
	feat := machine.SMTOff()
	job := f.cat.Profiles()[0].Name
	clean, err := EstimatePerJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, job, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := faultOptions(t, "replay.scenario=error#2")
	faulty, err := EstimatePerJob(context.Background(), f.an, f.cat, f.inh, f.cfg, feat, job, opts)
	if err != nil {
		t.Fatalf("per-job estimate with one transient fault = %v, want absorbed", err)
	}
	if faulty.ReductionPct != clean.ReductionPct {
		t.Errorf("retried per-job estimate %v != fault-free %v", faulty.ReductionPct, clean.ReductionPct)
	}
}
