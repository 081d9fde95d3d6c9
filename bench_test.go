// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end to end; custom
// metrics report the paper-comparable quantities (virtual seconds,
// megabytes, normalized scores) alongside the usual ns/op of regenerating
// the artifact. Run with:
//
//	go test -bench=. -benchmem
package flux_test

import (
	"io"
	"testing"

	"flux"
	"flux/internal/apps"
	"flux/internal/device"
	"flux/internal/experiments"
	"flux/internal/migration"
	"flux/internal/pairing"
	"flux/internal/playstore"
)

// BenchmarkTable2 regenerates the decorated-services table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard)
	}
}

// BenchmarkTable3 regenerates the app/workload table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard)
	}
}

// runMatrix executes the 64-migration evaluation matrix once, on the
// default host-sized worker pool.
func runMatrix(b *testing.B) []experiments.Cell {
	b.Helper()
	cells, err := experiments.RunMatrixWorkers(experiments.DefaultMatrixWorkers())
	if err != nil {
		b.Fatal(err)
	}
	return cells
}

// benchmarkMatrixWorkers measures matrix wall-clock at a fixed pool size;
// comparing the Workers1/Workers2/Workers4 variants shows how the
// evaluation driver scales with cores (near-linear up to the device-pair
// simulation cost; the figures themselves are byte-identical at every
// width, see TestMatrixDeterministicAcrossWorkerCounts).
func benchmarkMatrixWorkers(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunMatrixWorkers(workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 64 {
			b.Fatalf("matrix has %d cells", len(cells))
		}
	}
}

// BenchmarkMatrixWorkers1 is the sequential baseline for the matrix driver.
func BenchmarkMatrixWorkers1(b *testing.B) { benchmarkMatrixWorkers(b, 1) }

// BenchmarkMatrixWorkers2 runs the matrix on two workers.
func BenchmarkMatrixWorkers2(b *testing.B) { benchmarkMatrixWorkers(b, 2) }

// BenchmarkMatrixWorkers4 runs the matrix on four workers.
func BenchmarkMatrixWorkers4(b *testing.B) { benchmarkMatrixWorkers(b, 4) }

// BenchmarkFig12 regenerates overall migration times (16 apps × 4 pairs)
// and reports the average virtual migration time (paper: 7.88 s).
func BenchmarkFig12(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		cells := runMatrix(b)
		experiments.Figure12(io.Discard, cells)
		var total float64
		for _, c := range cells {
			total += c.Report.Timings.Total().Seconds()
		}
		avg = total / float64(len(cells))
	}
	b.ReportMetric(avg, "virt-s/migration")
}

// BenchmarkFig13 regenerates the stage breakdown and reports the average
// transfer share (paper: >50%).
func BenchmarkFig13(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		cells := runMatrix(b)
		experiments.Figure13(io.Discard, cells)
		var f float64
		for _, c := range cells {
			f += float64(c.Report.Timings[migration.StageTransfer]) / float64(c.Report.Timings.Total())
		}
		share = 100 * f / float64(len(cells))
	}
	b.ReportMetric(share, "transfer-%")
}

// BenchmarkFig14 regenerates user-perceived time excluding transfer
// (paper: 1.35 s average).
func BenchmarkFig14(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		cells := runMatrix(b)
		experiments.Figure14(io.Discard, cells)
		var total float64
		for _, c := range cells {
			total += c.Report.Timings.ExcludingTransfer().Seconds()
		}
		avg = total / float64(len(cells))
	}
	b.ReportMetric(avg, "virt-s/restore+reint")
}

// BenchmarkFig15 regenerates data transferred per migration and reports the
// maximum (paper: no migration above 14 MB).
func BenchmarkFig15(b *testing.B) {
	var maxMB float64
	for i := 0; i < b.N; i++ {
		cells := runMatrix(b)
		experiments.Figure15(io.Discard, cells)
		for _, c := range cells {
			if mb := float64(c.Report.TransferredBytes) / (1 << 20); mb > maxMB {
				maxMB = mb
			}
		}
	}
	b.ReportMetric(maxMB, "max-MB/migration")
}

// BenchmarkFig16 measures Selective Record overhead (paper: negligible,
// normalized scores ≈ 1.0). Reports the worst normalized score across the
// six benchmarks on the Nexus 4.
func BenchmarkFig16(b *testing.B) {
	worst := 1.0
	for i := 0; i < b.N; i++ {
		for _, mb := range apps.Microbenches() {
			res, err := apps.MeasureOverhead(device.Nexus4("bench"), mb, 1500)
			if err != nil {
				b.Fatal(err)
			}
			if res.Normalized < worst {
				worst = res.Normalized
			}
		}
	}
	b.ReportMetric(worst, "worst-normalized")
}

// BenchmarkFig17 regenerates the Play-store install-size CDF over the full
// 488,259-app catalog and reports the fraction under 1 MB (paper: ~0.60).
func BenchmarkFig17(b *testing.B) {
	var under1MB float64
	for i := 0; i < b.N; i++ {
		cat := playstore.Generate(playstore.PaperCatalogSize)
		experiments.Figure17(io.Discard, 20000)
		under1MB = cat.FractionBelow(1 << 10)
	}
	b.ReportMetric(under1MB, "frac<=1MB")
}

// BenchmarkPairing runs the §4 pairing-cost experiment (paper: 215 MB
// constant → 123 MB after linking → 56 MB compressed).
func BenchmarkPairing(b *testing.B) {
	var compMB float64
	for i := 0; i < b.N; i++ {
		home, err := device.New(device.Nexus7_2012("h"))
		if err != nil {
			b.Fatal(err)
		}
		guest, err := device.New(device.Nexus7_2013("g"))
		if err != nil {
			b.Fatal(err)
		}
		res, err := pairing.Pair(home, guest, nil)
		if err != nil {
			b.Fatal(err)
		}
		compMB = float64(res.CompressedBytes) / (1 << 20)
	}
	b.ReportMetric(compMB, "compressed-MB")
}

// BenchmarkMigrationSingle measures the real cost of one full migration
// (Netflix, phone → tablet), the library's core operation.
func BenchmarkMigrationSingle(b *testing.B) {
	app := apps.ByPackage("com.netflix.mediaclient")
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunOne(experiments.Figure12Pairs()[1], *app)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.StateConsistent() {
			b.Fatal("inconsistent state")
		}
	}
}

// BenchmarkRecordInterposition measures the per-call overhead Selective
// Record adds to a Binder transaction — the micro quantity behind Fig 16.
func BenchmarkRecordInterposition(b *testing.B) {
	dev, err := flux.NewDevice(flux.Nexus4("bench"))
	if err != nil {
		b.Fatal(err)
	}
	app := apps.ByPackage("com.whatsapp")
	s, err := apps.Launch(dev, *app)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Notify(i%100, "n:bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------

// BenchmarkAblationSelectiveVsFull compares record-log growth between
// selective and full recording.
func BenchmarkAblationSelectiveVsFull(b *testing.B) {
	app := apps.ByPackage("com.king.candycrushsaga")
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationSelectiveVsFull(io.Discard, *app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrep measures the device-specific bytes the preparation
// phase discards before checkpointing.
func BenchmarkAblationPrep(b *testing.B) {
	app := apps.ByPackage("com.king.candycrushsaga")
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationPrep(io.Discard, *app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLinkDest compares pairing with and without hard-link
// reuse.
func BenchmarkAblationLinkDest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationLinkDest(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPostCopy compares stop-and-copy against post-copy
// transfer (paper future work).
func BenchmarkAblationPostCopy(b *testing.B) {
	app := apps.ByPackage("com.king.candycrushsaga")
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationPostCopy(io.Discard, *app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCompression compares checkpoint transfer with and
// without compression.
func BenchmarkAblationCompression(b *testing.B) {
	app := apps.ByPackage("com.netflix.mediaclient")
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationCompression(io.Discard, *app); err != nil {
			b.Fatal(err)
		}
	}
}
