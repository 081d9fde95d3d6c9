package migration_test

import (
	"testing"

	"flux/internal/apps"
	"flux/internal/experiments"
	"flux/internal/migration"
)

// TestGraphReproducesReport pins the stage-graph extraction invariant:
// Graph(rep) is the Report as data — node durations are the Timings
// entries verbatim, in stage order, on the declared resources.
func TestGraphReproducesReport(t *testing.T) {
	rep, err := experiments.RunOne(experiments.Figure12Pairs()[1], *apps.ByPackage("com.king.candycrushsaga"))
	if err != nil {
		t.Fatal(err)
	}
	g := migration.Graph(rep)
	if len(g.Nodes) != 5 {
		t.Fatalf("Graph has %d nodes, want 5", len(g.Nodes))
	}
	wantRes := [5]migration.StageResource{
		migration.ResourceHomeCPU,
		migration.ResourceHomeCPU,
		migration.ResourceWire,
		migration.ResourceGuestCPU,
		migration.ResourceGuestCPU,
	}
	for i, n := range g.Nodes {
		if n.Stage != migration.Stage(i) {
			t.Errorf("node %d: stage %v, want %v", i, n.Stage, migration.Stage(i))
		}
		if n.Duration != rep.Timings[migration.Stage(i)] {
			t.Errorf("node %d: duration %v, want %v", i, n.Duration, rep.Timings[migration.Stage(i)])
		}
		if n.Resource != wantRes[i] {
			t.Errorf("node %d: resource %v, want %v", i, n.Resource, wantRes[i])
		}
	}
	if got, want := g.Total(), rep.Timings.Total(); got != want {
		t.Errorf("Total %v, want %v", got, want)
	}
	if got, want := g.UserPerceived(), rep.Timings.UserPerceived(); got != want {
		t.Errorf("UserPerceived %v, want %v", got, want)
	}
	if g.TransferredBytes != rep.TransferredBytes {
		t.Errorf("TransferredBytes %d, want %d", g.TransferredBytes, rep.TransferredBytes)
	}
}
