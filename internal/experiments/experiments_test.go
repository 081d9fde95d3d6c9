package experiments_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"flux/internal/apps"
	"flux/internal/experiments"
	"flux/internal/migration"
)

// matrix is computed once; the figures are different projections of it.
var matrix []experiments.Cell

func getMatrix(t *testing.T) []experiments.Cell {
	t.Helper()
	if matrix == nil {
		cells, err := experiments.RunMatrixWorkers(experiments.DefaultMatrixWorkers())
		if err != nil {
			t.Fatalf("RunMatrixWorkers: %v", err)
		}
		matrix = cells
	}
	return matrix
}

func TestMatrixCovers64Migrations(t *testing.T) {
	cells := getMatrix(t)
	if len(cells) != 64 {
		t.Fatalf("matrix has %d cells, want 64 (16 apps x 4 pairs)", len(cells))
	}
	for _, c := range cells {
		if !c.Report.StateConsistent() {
			t.Errorf("%s / %s: inconsistent state", c.App.Spec.Label, c.Pair.Name)
		}
	}
}

func TestHeadlineShapes(t *testing.T) {
	cells := getMatrix(t)
	var totalSec, xferFrac float64
	var maxWire int64
	slowPairTotal, fastPairTotal := 0.0, 0.0
	for _, c := range cells {
		totalSec += c.Report.Timings.Total().Seconds()
		xferFrac += float64(c.Report.Timings[migration.StageTransfer]) / float64(c.Report.Timings.Total())
		if c.Report.TransferredBytes > maxWire {
			maxWire = c.Report.TransferredBytes
		}
		switch c.Pair.Name {
		case "Nexus 7 to Nexus 4":
			slowPairTotal += c.Report.Timings.Total().Seconds()
		case "Nexus 7 (2013) to Nexus 7 (2013)":
			fastPairTotal += c.Report.Timings.Total().Seconds()
		}
	}
	n := float64(len(cells))
	avg := totalSec / n
	// Paper: 7.88 s average. Accept the right order of magnitude.
	if avg < 2 || avg > 16 {
		t.Errorf("average migration = %.2f s, paper reports 7.88 s", avg)
	}
	// Paper: over half the time is transfer.
	if xferFrac/n < 0.5 {
		t.Errorf("transfer share = %.2f, paper reports >0.5", xferFrac/n)
	}
	// Paper: no migration moved more than 14 MB.
	if maxWire > 15<<20 {
		t.Errorf("max transfer = %d bytes, paper caps at 14 MB", maxWire)
	}
	// The congested Nexus 7 (2012) pair must be slower than the 2013 pair.
	if slowPairTotal <= fastPairTotal {
		t.Errorf("N7→N4 total %.1f s not slower than N7'13 pair %.1f s", slowPairTotal, fastPairTotal)
	}
}

func TestTransferCorrelatesWithAppSize(t *testing.T) {
	cells := getMatrix(t)
	// Spearman-ish check: the biggest app (Bubble Witch) must transfer more
	// than the smallest (Flappy Bird) on every pair.
	big, small := map[string]int64{}, map[string]int64{}
	for _, c := range cells {
		switch c.App.Spec.Label {
		case "Bubble Witch Saga":
			big[c.Pair.Name] = c.Report.TransferredBytes
		case "Flappy Bird":
			small[c.Pair.Name] = c.Report.TransferredBytes
		}
	}
	for pair, b := range big {
		if s, ok := small[pair]; !ok || b <= s {
			t.Errorf("%s: big app %d <= small app %d", pair, b, s)
		}
	}
}

func TestExcludingTransferBelowUserPerceived(t *testing.T) {
	for _, c := range getMatrix(t) {
		tt := c.Report.Timings
		if tt.ExcludingTransfer() > tt.UserPerceived() {
			t.Fatalf("%s: excl-transfer %.2fs > user-perceived %.2fs",
				c.App.Spec.Label, tt.ExcludingTransfer().Seconds(), tt.UserPerceived().Seconds())
		}
		if tt.ExcludingTransfer() <= 0 {
			t.Fatalf("%s: zero excl-transfer time", c.App.Spec.Label)
		}
	}
}

func TestFigureRenderers(t *testing.T) {
	cells := getMatrix(t)
	var buf bytes.Buffer
	experiments.Table2(&buf)
	experiments.Table3(&buf)
	experiments.Figure12(&buf, cells)
	experiments.Figure13(&buf, cells)
	experiments.Figure14(&buf, cells)
	experiments.Figure15(&buf, cells)
	experiments.Figure17(&buf, 20000)
	experiments.Summary(&buf, cells)
	out := buf.String()
	for _, want := range []string{
		"Table 2", "IAlarmManager", "Table 3", "Candy Crush Saga",
		"Figure 12", "Figure 13", "XFER", "Figure 14", "Figure 15",
		"Figure 17", "setPreserveEGLContextOnPause",
		"avg migration time",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestMatrixDeterministicAcrossWorkerCounts(t *testing.T) {
	// The parallel matrix driver must be a pure performance change: for
	// any worker count the figures render byte-identically to the
	// sequential run.
	render := func(cells []experiments.Cell) string {
		var buf bytes.Buffer
		experiments.Figure12(&buf, cells)
		experiments.Figure13(&buf, cells)
		experiments.Figure14(&buf, cells)
		experiments.Figure15(&buf, cells)
		experiments.Summary(&buf, cells)
		return buf.String()
	}
	seq, err := experiments.RunMatrixWorkers(1)
	if err != nil {
		t.Fatalf("RunMatrixWorkers(1): %v", err)
	}
	want := render(seq)
	for _, workers := range []int{3, 8} {
		par, err := experiments.RunMatrixWorkers(workers)
		if err != nil {
			t.Fatalf("RunMatrixWorkers(%d): %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(par), len(seq))
		}
		for i := range par {
			if par[i].App.Spec.Package != seq[i].App.Spec.Package || par[i].Pair.Name != seq[i].Pair.Name {
				t.Fatalf("workers=%d: cell %d is %s/%s, want %s/%s", workers, i,
					par[i].App.Spec.Label, par[i].Pair.Name, seq[i].App.Spec.Label, seq[i].Pair.Name)
			}
		}
		if got := render(par); got != want {
			t.Errorf("workers=%d: rendered figures differ from sequential run", workers)
		}
	}
}

func TestMatrixMetricsShape(t *testing.T) {
	cells := getMatrix(t)
	m := experiments.MatrixMetrics(cells)
	if m["migrations"] != 64 {
		t.Errorf("migrations metric = %v, want 64", m["migrations"])
	}
	for _, key := range []string{
		"avg_virtual_migration_s", "avg_user_perceived_s", "avg_excl_transfer_s",
		"avg_transfer_share_pct", "avg_transferred_mb", "max_transferred_mb",
	} {
		if m[key] <= 0 {
			t.Errorf("metric %s = %v, want > 0", key, m[key])
		}
	}
}

func TestResultsTimeAndWriteFile(t *testing.T) {
	res := experiments.NewResults(4)
	if err := res.Time("demo", func() (map[string]float64, error) {
		return map[string]float64{"x": 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/BENCH_results.json"
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back experiments.Results
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Schema != experiments.ResultsSchemaVersion || back.MatrixWorkers != 4 {
		t.Errorf("round trip = %+v", back)
	}
	if len(back.Sections) != 1 || back.Sections[0].Name != "demo" || back.Sections[0].Metrics["x"] != 1 {
		t.Errorf("sections = %+v", back.Sections)
	}
}

func TestPairingCostRenderer(t *testing.T) {
	var buf bytes.Buffer
	if err := experiments.PairingCost(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "compressed delta") {
		t.Errorf("output = %s", buf.String())
	}
}

func TestFailuresRenderer(t *testing.T) {
	var buf bytes.Buffer
	if err := experiments.Failures(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Facebook") || !strings.Contains(out, "Subway Surfers") {
		t.Errorf("failures output = %s", out)
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	candy := apps.ByPackage("com.king.candycrushsaga")
	if err := experiments.AblationSelectiveVsFull(&buf, *candy); err != nil {
		t.Fatal(err)
	}
	if err := experiments.AblationPrep(&buf, *candy); err != nil {
		t.Fatal(err)
	}
	if err := experiments.AblationLinkDest(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "selective") || !strings.Contains(out, "discarded") || !strings.Contains(out, "link-dest") {
		t.Errorf("ablation output = %s", out)
	}
}

func TestFigure16SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	var buf bytes.Buffer
	if err := experiments.Figure16(&buf, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SunSpider") {
		t.Errorf("figure 16 output = %s", buf.String())
	}
}

// TestRunEvaluationSmoke runs the whole section table once, small: the
// JSON sections are the matrix and then every section in order, and the
// text carries each part of the paper's §4.
func TestRunEvaluationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation is slow")
	}
	var sb strings.Builder
	res, err := experiments.Evaluate(&sb, experiments.Config{BenchIters: 40, PlayN: 10000})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	want := append([]string{"matrix"}, experiments.SectionNames()...)
	if len(res.Sections) != len(want) {
		t.Fatalf("%d sections, want %d", len(res.Sections), len(want))
	}
	for i, s := range res.Sections {
		if s.Name != want[i] {
			t.Errorf("section %d is %q, want %q", i, s.Name, want[i])
		}
	}
	out := sb.String()
	for _, want := range []string{"Table 2", "Figure 12", "Figure 16", "Figure 17", "Pairing cost", "Expected failures", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("evaluation output missing %q", want)
		}
	}
}

func TestEvaluateRejectsUnknownSection(t *testing.T) {
	if _, err := experiments.Evaluate(io.Discard, experiments.Config{}, "figure11"); err == nil {
		t.Error("Evaluate accepted an unknown section")
	}
}
