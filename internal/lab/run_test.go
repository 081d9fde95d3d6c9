package lab

import (
	"bytes"
	"flag"
	"os"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCH_lab.json from the smoke spec")

const (
	smokePath    = "../../lab/specs/smoke.yaml"
	baselinePath = "../../BENCH_lab.json"
)

// The full Runner.Run executes the core battery (eight matrices, two
// commuter sweeps, a traced migration) — about a second of wall-clock.
// Tests share one run of the shipped smoke spec per width instead of
// re-running per assertion.
var (
	runOnce    sync.Once
	sharedSpec Spec
	sharedRep  *Report // width 2
	sharedRep1 *Report // width 1
	runErr     error
)

func sharedRun(t *testing.T) (*Report, *Report) {
	t.Helper()
	runOnce.Do(func() {
		if sharedSpec, runErr = LoadSpec(smokePath); runErr != nil {
			return
		}
		r2 := &Runner{Spec: sharedSpec, Workers: 2}
		if sharedRep, runErr = r2.Run(); runErr != nil {
			return
		}
		r1 := &Runner{Spec: sharedSpec, Workers: 1}
		sharedRep1, runErr = r1.Run()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return sharedRep, sharedRep1
}

// TestCommittedReport pins the smoke spec's report: its JSON must equal
// the committed BENCH_lab.json byte for byte. Every field is a function
// of (spec, seed) on virtual time, so any difference is a real change
// to a timing, a byte count, a signal or the calibration.
//
// `go test ./internal/lab -run TestCommittedReport -update` rewrites
// the file.
func TestCommittedReport(t *testing.T) {
	rep, _ := sharedRun(t)
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(baselinePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", baselinePath)
		return
	}
	want, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the smoke report differs from %s; if the change is intended, rerun with -update and review the diff", baselinePath)
	}
}

func TestRunSignalBattery(t *testing.T) {
	rep, _ := sharedRun(t)
	if len(rep.Signals) < 30 {
		t.Fatalf("battery reported %d signals, want ≥ 30", len(rep.Signals))
	}
	for _, s := range rep.Signals {
		if !s.Pass {
			t.Errorf("signal %s failed: %s", s.Name, s.Evidence)
		}
		if s.Evidence == "" {
			t.Errorf("signal %s has no evidence", s.Name)
		}
	}
	if rep.SignalsFailed != 0 || rep.SignalsPassed != len(rep.Signals) {
		t.Errorf("pass/fail accounting wrong: %d+%d of %d", rep.SignalsPassed, rep.SignalsFailed, len(rep.Signals))
	}
	if rep.Failed() {
		t.Error("healthy run reports Failed()")
	}
}

// TestRunSignalsMatchCatalog: the emitted battery is exactly the
// published catalog, in order — no silent drops, no unnamed extras.
func TestRunSignalsMatchCatalog(t *testing.T) {
	rep, _ := sharedRun(t)
	catalog := SignalCatalog()
	if len(rep.Signals) != len(catalog) {
		t.Fatalf("run emitted %d signals, catalog lists %d", len(rep.Signals), len(catalog))
	}
	for i, s := range rep.Signals {
		if s.Name != catalog[i].Name {
			t.Errorf("signal %d: emitted %q, catalog %q", i, s.Name, catalog[i].Name)
		}
	}
}

// TestRunWidthByteIdentity: the acceptance criterion — same seed, same
// spec, any worker width: byte-identical report (JSON and rendered).
func TestRunWidthByteIdentity(t *testing.T) {
	rep, rep1 := sharedRun(t)
	j2, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j1, err := rep1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("report JSON differs between widths 1 and 2")
	}
	var t1, t2 bytes.Buffer
	rep1.Render(&t1)
	rep.Render(&t2)
	if t1.String() != t2.String() {
		t.Error("rendered report differs between widths 1 and 2")
	}
}

func TestRunReportShape(t *testing.T) {
	rep, _ := sharedRun(t)
	if rep.Schema != ReportSchemaVersion {
		t.Errorf("schema %d, want %d", rep.Schema, ReportSchemaVersion)
	}
	if rep.SpecHash != sharedSpec.Hash() {
		t.Error("report spec hash does not match the spec")
	}
	// 1×2 workers × 2 pipelined = 4 sweep cells, sorted by ID.
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d sweep cells, want 4", len(rep.Cells))
	}
	for i := 1; i < len(rep.Cells); i++ {
		if rep.Cells[i-1].ID >= rep.Cells[i].ID {
			t.Errorf("cells not in canonical order: %q then %q", rep.Cells[i-1].ID, rep.Cells[i].ID)
		}
	}
	for _, c := range rep.Cells {
		if c.Migrations != 64 {
			t.Errorf("cell %s ran %d migrations, want 64", c.ID, c.Migrations)
		}
		if c.TotalP50S <= 0 || c.WireBytes <= 0 {
			t.Errorf("cell %s has empty aggregates: %+v", c.ID, c)
		}
	}
	if rep.Calibration == nil || !rep.Calibration.Pass {
		t.Error("calibration missing or failing on a healthy run")
	}
	if rep.Counterfactual == nil || rep.Counterfactual.Cells != 64 {
		t.Error("counterfactual analysis missing or wrong size")
	}
}

func TestRunFaultScenario(t *testing.T) {
	r := &Runner{Spec: Spec{
		Name:     "test-faults",
		Scenario: ScenarioFaults,
		Seed:     1,
		Sweep:    Sweep{FaultRates: []float64{0.15}},
	}, Workers: 4}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.Migrations != 64 {
		t.Errorf("fault cell ran %d migrations, want 64", c.Migrations)
	}
	if c.Retries == 0 {
		t.Error("fault cell at rate 0.15 recorded no retries")
	}
	if rep.Failed() {
		for _, s := range rep.Signals {
			if !s.Pass {
				t.Errorf("signal %s failed: %s", s.Name, s.Evidence)
			}
		}
	}
}

func TestRunCommuterScenario(t *testing.T) {
	r := &Runner{Spec: Spec{
		Name:     "test-commuter",
		Scenario: ScenarioCommuter,
		Seed:     1,
		Sweep:    Sweep{RoundTrips: 2, DirtyFracs: []float64{0.10}, CacheBudgets: []int64{0}},
	}, Workers: 4}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(rep.Cells))
	}
	c := rep.Cells[0]
	// 4 pairs × 2K hops (K=2).
	if c.Migrations != 16 {
		t.Errorf("commuter cell ran %d hops, want 16", c.Migrations)
	}
	if c.CacheHits+c.CacheRollingHits == 0 {
		t.Error("commuter cell recorded no cache hits")
	}
	if c.CacheBytesNotShipped <= 0 {
		t.Error("commuter cell kept no bytes off the wire")
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	r := &Runner{Spec: Spec{Name: "bad", Scenario: "orbit"}}
	if _, err := r.Run(); err == nil {
		t.Error("runner accepted an invalid scenario")
	}
}
