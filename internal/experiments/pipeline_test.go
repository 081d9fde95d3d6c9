package experiments

import (
	"testing"
	"time"

	"flux/internal/migration"
)

// TestPipelineMatrixSavings runs the full 64-migration evaluation matrix
// sequentially and pipelined and pins the tentpole's headline contract:
//
//   - every cell's Report.PipelineSavings equals the measured
//     sequential-minus-pipelined user-perceived delta EXACTLY (the
//     counterfactual formula mirrors the sequential code path, so there is
//     no tolerance),
//   - not a single transferred byte changes,
//   - the matrix-wide average user-perceived saving is at least 15%.
func TestPipelineMatrixSavings(t *testing.T) {
	seq, err := RunMatrixWorkers(DefaultMatrixWorkers())
	if err != nil {
		t.Fatal(err)
	}
	pip, err := RunMatrixWorkersOpts(DefaultMatrixWorkers(), migration.Options{Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(pip) || len(seq) == 0 {
		t.Fatalf("matrix sizes differ: %d vs %d", len(seq), len(pip))
	}
	var seqUser, pipUser, savings time.Duration
	for i := range seq {
		s, p := seq[i].Report, pip[i].Report
		label := seq[i].App.Spec.Label + " / " + seq[i].Pair.Name
		seqUser += s.Timings.UserPerceived()
		pipUser += p.Timings.UserPerceived()
		savings += p.PipelineSavings
		if d := s.Timings.UserPerceived() - p.Timings.UserPerceived(); d != p.PipelineSavings {
			t.Errorf("%s: measured delta %v != reported PipelineSavings %v", label, d, p.PipelineSavings)
		}
		if s.TransferredBytes != p.TransferredBytes {
			t.Errorf("%s: transferred bytes differ: %d vs %d", label, s.TransferredBytes, p.TransferredBytes)
		}
		if s.CompressedImageBytes != p.CompressedImageBytes {
			t.Errorf("%s: compressed image bytes differ: %d vs %d", label, s.CompressedImageBytes, p.CompressedImageBytes)
		}
		if p.PipelineChunks < 2 {
			t.Errorf("%s: only %d chunks streamed", label, p.PipelineChunks)
		}
	}
	if savings != seqUser-pipUser {
		t.Errorf("Σ savings %v != Σ measured delta %v", savings, seqUser-pipUser)
	}
	pct := 100 * float64(seqUser-pipUser) / float64(seqUser)
	n := time.Duration(len(seq))
	t.Logf("matrix: seq avg user %v, pipelined avg user %v, avg savings %v (%.1f%%)",
		(seqUser / n).Round(time.Millisecond), (pipUser / n).Round(time.Millisecond),
		(savings / n).Round(time.Millisecond), pct)
	if pct < 15 {
		t.Errorf("matrix-wide user-perceived saving = %.1f%%, want ≥ 15%%", pct)
	}
}
