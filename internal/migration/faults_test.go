package migration_test

// Fault-injection behavior tests: resumable chunk recovery, rollback to
// the home device, and the zero-fault no-drift guarantee.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"flux/internal/android"
	"flux/internal/faults"
	"flux/internal/migration"
	"flux/internal/obs"
)

// faultWorld builds the standard two-device world and runs the service
// workload so the record log is non-trivial.
func faultWorld(t *testing.T) *world {
	t.Helper()
	w := newWorld(t, spec())
	w.runWorkload(t)
	return w
}

func migrateWith(t *testing.T, w *world, opts migration.Options) (*migration.Report, error) {
	t.Helper()
	return migration.New(w.home, w.guest, opts).Migrate(pkg)
}

// TestFaultRecoveryResumesChunks: with bounded corruption and one link
// flap injected, the migration still completes with consistent state,
// and only the faulted chunks were reshipped — RetransmitBytes stays
// strictly below the total wire size.
func TestFaultRecoveryResumesChunks(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		name := "sequential"
		if pipelined {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			w := faultWorld(t)
			inj := faults.New(7, faults.Plan{
				faults.ChunkCorrupt: {Probability: 1, Count: 2},
				faults.LinkFlap:     {Probability: 0.5, Count: 1},
			})
			rep, err := migrateWith(t, w, migration.Options{Pipelined: pipelined, Faults: inj})
			if err != nil {
				t.Fatalf("faulted migration failed outright: %v", err)
			}
			if rep.Outcome != migration.OutcomeOK {
				t.Errorf("Outcome = %q, want %q", rep.Outcome, migration.OutcomeOK)
			}
			if !rep.StateConsistent() {
				t.Error("restored state diverged after fault recovery")
			}
			if rep.Retries == 0 {
				t.Error("no retries recorded despite certain corruption")
			}
			if got := inj.Fired(faults.ChunkCorrupt); got != 2 {
				t.Errorf("ChunkCorrupt fired %d times, want exactly 2 (Count cap)", got)
			}
			if rep.RetransmitBytes <= 0 {
				t.Error("no retransmitted bytes recorded")
			}
			if rep.RetransmitBytes >= rep.TransferredBytes {
				t.Errorf("RetransmitBytes %d >= TransferredBytes %d: recovery reshipped everything instead of resuming",
					rep.RetransmitBytes, rep.TransferredBytes)
			}
			if rep.FaultEvents["chunk.corrupt"] != 2 {
				t.Errorf("FaultEvents = %v, want chunk.corrupt:2", rep.FaultEvents)
			}
			// The guest runs the app; home no longer does.
			if w.guest.Runtime.App(pkg) == nil {
				t.Error("app not running on guest after recovered migration")
			}
			if w.home.Runtime.App(pkg) != nil {
				t.Error("home still runs the app after successful migration")
			}
		})
	}
}

// TestFaultRecoveryAddsTransferTime: recovery overhead lands in the
// transfer stage timing (and nowhere else) for wire faults.
func TestFaultRecoveryAddsTransferTime(t *testing.T) {
	base, err := migrateWith(t, faultWorld(t), migration.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(11, faults.Plan{faults.ChunkCorrupt: {Probability: 1, Count: 3}})
	faulted, err := migrateWith(t, faultWorld(t), migration.Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Timings[migration.StageTransfer] <= base.Timings[migration.StageTransfer] {
		t.Errorf("faulted transfer %v not slower than clean %v",
			faulted.Timings[migration.StageTransfer], base.Timings[migration.StageTransfer])
	}
	for _, s := range []migration.Stage{migration.StagePreparation, migration.StageCheckpoint, migration.StageRestore} {
		if faulted.Timings[s] != base.Timings[s] {
			t.Errorf("%s: %v != clean %v (wire faults leaked into another stage)", s, faulted.Timings[s], base.Timings[s])
		}
	}
}

// assertRolledBackHome checks the rollback contract: ErrRolledBack, the
// report says so, the guest holds nothing, and the app is alive,
// foregrounded, and startable on the home device.
func assertRolledBackHome(t *testing.T, w *world, rep *migration.Report, err error) {
	t.Helper()
	if !errors.Is(err, migration.ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack", err)
	}
	if rep == nil {
		t.Fatal("rollback returned a nil report")
	}
	if rep.Outcome != migration.OutcomeRolledBack {
		t.Errorf("Outcome = %q, want %q", rep.Outcome, migration.OutcomeRolledBack)
	}
	if w.guest.Runtime.App(pkg) != nil {
		t.Error("guest still runs a partial app instance after rollback")
	}
	app := w.home.Runtime.App(pkg)
	if app == nil {
		t.Fatal("home lost the app — rollback must keep it intact")
	}
	if act := app.TopActivity(); act == nil || act.State() != android.StateResumed {
		t.Error("home app not foregrounded after rollback")
	}
	if hi := w.home.Installed(pkg); hi == nil || hi.MigratedTo != "" {
		t.Error("home install marked migrated-away after rollback")
	}
	// And the proof of "runnable": migrating again without faults works.
	rep2, err2 := migrateWith(t, w, migration.Options{})
	if err2 != nil {
		t.Fatalf("re-migration after rollback failed: %v", err2)
	}
	if !rep2.StateConsistent() {
		t.Error("re-migration after rollback lost state")
	}
}

// TestRollbackOnPersistentTransferFault: a link that flaps on every
// attempt exhausts the per-chunk retry budget and rolls back.
func TestRollbackOnPersistentTransferFault(t *testing.T) {
	w := faultWorld(t)
	inj := faults.New(3, faults.Plan{faults.LinkFlap: {Probability: 1}})
	rep, err := migrateWith(t, w, migration.Options{
		Faults: inj,
		Retry:  migration.RetryPolicy{MaxRetries: 3},
	})
	assertRolledBackHome(t, w, rep, err)
	if rep.Retries != 3 {
		t.Errorf("Retries = %d, want exactly MaxRetries 3", rep.Retries)
	}
}

// TestRollbackOnPersistentRestoreFault: restore fails every attempt;
// nothing was stood up on the guest and home gets the app back.
func TestRollbackOnPersistentRestoreFault(t *testing.T) {
	w := faultWorld(t)
	inj := faults.New(5, faults.Plan{faults.RestoreFail: {Probability: 1}})
	rep, err := migrateWith(t, w, migration.Options{Faults: inj})
	assertRolledBackHome(t, w, rep, err)
	if rep.Timings[migration.StageRestore] == 0 {
		t.Error("failed restore attempts cost no virtual time")
	}
}

// TestRollbackOnPersistentReplayFault: reintegration exhausts after the
// guest instance was restored — the partial instance must be discarded.
func TestRollbackOnPersistentReplayFault(t *testing.T) {
	w := faultWorld(t)
	inj := faults.New(9, faults.Plan{faults.ReplayFail: {Probability: 1}})
	rep, err := migrateWith(t, w, migration.Options{Faults: inj})
	assertRolledBackHome(t, w, rep, err)
}

// TestBoundedRestoreFaultRecovers: a restore failure under the retry cap
// costs time but the migration completes.
func TestBoundedRestoreFaultRecovers(t *testing.T) {
	inj := faults.New(13, faults.Plan{faults.RestoreFail: {Probability: 1, Count: 2}})
	rep, err := migrateWith(t, faultWorld(t), migration.Options{Faults: inj})
	if err != nil {
		t.Fatalf("bounded restore fault did not recover: %v", err)
	}
	if rep.Retries != 2 || !rep.StateConsistent() {
		t.Errorf("retries = %d, consistent = %v", rep.Retries, rep.StateConsistent())
	}
}

// TestStageTimeoutRollsBack: recovery overhead beyond StageTimeout rolls
// back even while the per-chunk retry cap is unexhausted.
func TestStageTimeoutRollsBack(t *testing.T) {
	w := faultWorld(t)
	inj := faults.New(17, faults.Plan{faults.ChunkCorrupt: {Probability: 1}})
	rep, err := migrateWith(t, w, migration.Options{
		Faults: inj,
		Retry:  migration.RetryPolicy{MaxRetries: 1 << 20, StageTimeout: 1},
	})
	assertRolledBackHome(t, w, rep, err)
	_ = rep
}

// TestZeroFaultNoDrift: a disabled injector (nil, or non-nil with an
// empty plan) produces a migration bit-identical to one without the
// fault subsystem — same timings, same bytes, same span tree.
func TestZeroFaultNoDrift(t *testing.T) {
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()

	run := func(opts migration.Options) (*migration.Report, string) {
		obs.Reset()
		w := faultWorld(t)
		rep, err := migrateWith(t, w, opts)
		if err != nil {
			t.Fatalf("clean migration failed: %v", err)
		}
		// Name, virtual duration and attributes of every span, in tree
		// order; wall times and span ids differ between any two runs.
		var tree strings.Builder
		for _, s := range obs.SortTree(obs.T().Snapshot()) {
			fmt.Fprintf(&tree, "%s %v %v\n", s.Name, s.Virt(), s.Attrs)
		}
		return rep, tree.String()
	}

	base, baseTree := run(migration.Options{})
	for name, opts := range map[string]migration.Options{
		"nil-injector":   {Faults: nil},
		"empty-plan":     {Faults: faults.New(1, nil)},
		"zero-prob-plan": {Faults: faults.New(1, faults.Plan{faults.LinkFlap: {Probability: 0}})},
	} {
		rep, tree := run(opts)
		if rep.Timings != base.Timings {
			t.Errorf("%s: timings drifted: %v != %v", name, rep.Timings, base.Timings)
		}
		if rep.TransferredBytes != base.TransferredBytes || rep.CompressedImageBytes != base.CompressedImageBytes {
			t.Errorf("%s: byte accounting drifted", name)
		}
		if rep.Retries != 0 || rep.RetransmitBytes != 0 || rep.FaultEvents != nil {
			t.Errorf("%s: fault fields populated on a zero-fault run: %+v", name, rep)
		}
		if tree != baseTree {
			t.Errorf("%s: span tree drifted from the fault-free run:\n%s\nwant:\n%s", name, tree, baseTree)
		}
	}
}

// TestFaultRetrySpans: every recovered fault emits one fault.retry span
// under its stage span, and the spans' resent bytes add up to the
// report's RetransmitBytes.
func TestFaultRetrySpans(t *testing.T) {
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()
	obs.Reset()

	inj := faults.New(7, faults.Plan{faults.ChunkCorrupt: {Probability: 1, Count: 2}})
	rep, err := migrateWith(t, faultWorld(t), migration.Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	var resent int64
	for _, s := range obs.T().Snapshot() {
		if s.Name != migration.SpanFaultRetry {
			continue
		}
		retries++
		attrs := make(map[string]any, len(s.Attrs))
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value()
		}
		if attrs["site"] != string(faults.ChunkCorrupt) || attrs["stage"] != migration.StageTransfer.String() {
			t.Errorf("fault.retry span site=%v stage=%v, want %s in %s",
				attrs["site"], attrs["stage"], faults.ChunkCorrupt, migration.StageTransfer)
		}
		n, _ := attrs["resent_bytes"].(int64)
		resent += n
	}
	if retries != 2 {
		t.Errorf("%d fault.retry spans, want 2", retries)
	}
	if resent != rep.RetransmitBytes {
		t.Errorf("fault.retry spans resent %d bytes, report says %d", resent, rep.RetransmitBytes)
	}
}

// TestFaultDeterminism: the same seed and plan reproduce the identical
// report; a different seed is allowed to differ (and here, with a
// probabilistic flap, does at least not crash).
func TestFaultDeterminism(t *testing.T) {
	plan := faults.Plan{
		faults.ChunkCorrupt: {Probability: 0.3, Count: 4},
		faults.LinkFlap:     {Probability: 0.2, Count: 1},
	}
	run := func(seed int64) *migration.Report {
		rep, err := migrateWith(t, faultWorld(t), migration.Options{Faults: faults.New(seed, plan.Clone())})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return rep
	}
	a, b := run(42), run(42)
	if a.Timings != b.Timings || a.Retries != b.Retries || a.RetransmitBytes != b.RetransmitBytes {
		t.Errorf("same seed diverged: %+v vs %+v", a.Timings, b.Timings)
	}
}

// TestVerifyLogCleanRun: with anchor verification on and no faults, the
// migration completes normally — the anchor rides in the image, the
// guest verifies it, and replay proceeds.
func TestVerifyLogCleanRun(t *testing.T) {
	w := faultWorld(t)
	rep, err := migrateWith(t, w, migration.Options{VerifyLog: true})
	if err != nil {
		t.Fatalf("verified migration failed: %v", err)
	}
	if rep.Outcome != migration.OutcomeOK || !rep.StateConsistent() {
		t.Errorf("Outcome = %q, consistent = %v", rep.Outcome, rep.StateConsistent())
	}
}

// TestRollbackOnLogTamper is the tentpole's end-to-end acceptance test:
// a fault that flips one record-log bit AFTER the container CRC layer
// (modeling in-memory corruption or a cleanly re-framed adversarial
// mutation) is caught by anchor verification before anything replays,
// and the migration rolls back to home — never a wrong replay.
func TestRollbackOnLogTamper(t *testing.T) {
	w := faultWorld(t)
	inj := faults.New(21, faults.Plan{faults.LogTamper: {Probability: 1, Count: 1}})
	rep, err := migrateWith(t, w, migration.Options{VerifyLog: true, Faults: inj})
	assertRolledBackHome(t, w, rep, err)
	if got := inj.Fired(faults.LogTamper); got != 1 {
		t.Errorf("LogTamper fired %d times, want 1", got)
	}
	if !strings.Contains(err.Error(), "anchor") {
		t.Errorf("rollback cause does not name anchor verification: %v", err)
	}
}

// TestLogTamperWithoutVerifyLogIsInert: the tamper site is gated on
// VerifyLog — without the anchor there is nothing to check against, so
// the injector question is never asked and the decision stream of
// existing fault plans is unchanged.
func TestLogTamperWithoutVerifyLogIsInert(t *testing.T) {
	w := faultWorld(t)
	inj := faults.New(21, faults.Plan{faults.LogTamper: {Probability: 1}})
	rep, err := migrateWith(t, w, migration.Options{Faults: inj})
	if err != nil {
		t.Fatalf("migration failed: %v", err)
	}
	if rep.Outcome != migration.OutcomeOK {
		t.Errorf("Outcome = %q", rep.Outcome)
	}
	if got := inj.Fired(faults.LogTamper); got != 0 {
		t.Errorf("LogTamper fired %d times without VerifyLog", got)
	}
}
