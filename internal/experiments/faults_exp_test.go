package experiments

// Acceptance tests for the fault matrix: the headline fault model
// (per-chunk corruption + at most one mid-stream link flap) must recover
// ≥99% of the 64-cell matrix with byte-identical restored state,
// retransmitting only failed chunks; hostile rates may roll back but
// never lose an app; and results are identical at any worker count.

import (
	"bytes"
	"strings"
	"testing"

	"flux/internal/apps"
	"flux/internal/migration"
)

// TestFaultMatrixHeadlineRecovery is the PR's acceptance gate: at the
// headline 15% chunk fault rate with ≤1 link flap per migration, at
// least 99% of the matrix completes, every recovered cell resumed
// rather than restarted, and no outcome falls outside {ok, rolled-back}.
func TestFaultMatrixHeadlineRecovery(t *testing.T) {
	cells, err := RunFaultMatrixWorkers(DefaultMatrixWorkers(), 1, DefaultFaultPlan(0.15))
	if err != nil {
		t.Fatalf("fault matrix lost an app: %v", err)
	}
	if len(cells) != 64 {
		t.Fatalf("matrix ran %d cells, want 64", len(cells))
	}
	var recovered, faulted int
	for _, c := range cells {
		if c.RolledBack() {
			continue
		}
		recovered++
		rep := c.Report
		if rep.Outcome != migration.OutcomeOK {
			t.Errorf("%s / %s: outcome %q", c.App.Spec.Label, c.Pair.Name, rep.Outcome)
		}
		if rep.Retries > 0 {
			faulted++
			if rep.RetransmitBytes >= rep.TransferredBytes {
				t.Errorf("%s / %s: retransmitted %d of %d wire bytes — not resuming",
					c.App.Spec.Label, c.Pair.Name, rep.RetransmitBytes, rep.TransferredBytes)
			}
			if rep.RetransmitBytes > int64(rep.Retries)*migration.DefaultPipelineChunkBytes {
				t.Errorf("%s / %s: more than one chunk reshipped per retry", c.App.Spec.Label, c.Pair.Name)
			}
		}
	}
	if rate := float64(recovered) / float64(len(cells)); rate < 0.99 {
		t.Errorf("recovery rate %.3f < 0.99 (%d/%d)", rate, recovered, len(cells))
	}
	if faulted == 0 {
		t.Error("no cell saw a fault at a 15% rate — injector not wired through the matrix")
	}
}

// TestFaultMatrixDeterministicAcrossWorkers: per-cell derived seeds make
// the faulted matrix reproduce exactly at any pool width.
func TestFaultMatrixDeterministicAcrossWorkers(t *testing.T) {
	plan := DefaultFaultPlan(0.25)
	one, err := RunFaultMatrixWorkers(1, 7, plan)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunFaultMatrixWorkers(8, 7, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		a, b := one[i], many[i]
		if a.Seed != b.Seed || a.RolledBack() != b.RolledBack() {
			t.Fatalf("cell %d diverged across worker counts", i)
		}
		if a.Err == nil {
			if a.Report.Retries != b.Report.Retries ||
				a.Report.RetransmitBytes != b.Report.RetransmitBytes ||
				a.Report.Timings != b.Report.Timings {
				t.Errorf("cell %d (%s/%s): reports diverged across worker counts",
					i, a.App.Spec.Label, a.Pair.Name)
			}
		}
	}
}

// TestFaultMatrixRendererAndAblation: the printed fault-rate sweep runs
// end to end and covers the benign and hostile ends. The fault matrix's
// aggregates are TestFaultMatrixHeadlineRecovery's and the lab's faults.*
// signals'.
func TestFaultMatrixRendererAndAblation(t *testing.T) {
	var buf bytes.Buffer
	a := apps.ByPackage("com.king.candycrushsaga")
	if a == nil {
		t.Fatal("app catalog missing candy crush")
	}
	if err := AblationFaults(&buf, *a, 1); err != nil {
		t.Fatalf("AblationFaults: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "rate   0%") || !strings.Contains(out, "rate  75%") {
		t.Errorf("ablation missing sweep points:\n%s", out)
	}
}
