package experiments

// Fault-tolerance experiments: the fault matrix (the full 64-migration
// evaluation matrix re-run under injected wire faults) and a fault-rate
// ablation. Each cell derives its own injector seed from (base seed,
// app, pair) — faults.Derive — so the matrix is deterministic at any
// worker-pool width, exactly like the clean matrix.

import (
	"errors"
	"fmt"
	"io"
	"time"

	"flux/internal/apps"
	"flux/internal/faults"
	"flux/internal/migration"
)

// DefaultFaultPlan is the headline fault model of the robustness
// evaluation: every chunk faces `rate` corruption probability, and each
// migration suffers at most one mid-stream link flap (probability
// `rate`, capped at one firing).
func DefaultFaultPlan(rate float64) faults.Plan {
	return faults.Plan{
		faults.ChunkCorrupt: {Probability: rate},
		faults.LinkFlap:     {Probability: rate, Count: 1},
	}
}

// RunFaultMatrixWorkers runs the 16-app × 4-pair matrix with fault
// injection on a workers-wide pool. Every cell gets its own injector
// seeded by Derive(seed, pkg, pair), so results are byte-identical at
// any worker count. A cell either completes or rolls back cleanly
// (Cell.RolledBack); any other failure loses an app and aborts the run
// (matrix order, deterministically).
func RunFaultMatrixWorkers(workers int, seed int64, plan faults.Plan) ([]Cell, error) {
	return runMatrix(workers, migration.Options{}, seed, plan)
}

// AblationFaults sweeps the fault rate for one app across the four
// device pairs, showing how recovery overhead and rollback frequency
// grow with link hostility — and that outcomes never leave the
// {completed, rolled-back} set.
func AblationFaults(w io.Writer, a apps.App, seed int64) error {
	fmt.Fprintf(w, "Ablation (fault rate sweep), app %s:\n", a.Spec.Label)
	base := make(map[string]time.Duration, 4)
	for _, p := range Figure12Pairs() {
		rep, err := RunOneOpts(p, a, migration.Options{})
		if err != nil {
			return err
		}
		base[p.Name] = rep.Timings.Total()
	}
	for _, rate := range []float64{0, 0.05, 0.15, 0.35, 0.75} {
		var done, back, retries int
		var overhead time.Duration
		var retransmit int64
		for _, p := range Figure12Pairs() {
			opts := migration.Options{
				Faults: faults.New(faults.Derive(seed, a.Spec.Package, p.Name), DefaultFaultPlan(rate)),
			}
			rep, err := RunOneOpts(p, a, opts)
			switch {
			case err == nil:
				done++
				retries += rep.Retries
				retransmit += rep.RetransmitBytes
				overhead += rep.Timings.Total() - base[p.Name]
			case errors.Is(err, migration.ErrRolledBack):
				back++
			default:
				return fmt.Errorf("experiments: fault ablation lost the app at rate %.2f on %s: %w", rate, p.Name, err)
			}
		}
		var avg float64
		if done > 0 {
			avg = sec(overhead) / float64(done)
		}
		fmt.Fprintf(w, "  rate %3.0f%%: %d/4 completed, %d rolled back, %2d retries, %7.1f KB retransmitted, +%6.3f s avg overhead\n",
			100*rate, done, back, retries, float64(retransmit)/(1<<10), avg)
	}
	return nil
}
