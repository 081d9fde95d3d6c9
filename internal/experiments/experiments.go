// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) from the simulation: Table 2 (decorated services), Table 3
// (app workloads), Figure 12 (migration times across four device pairs),
// Figure 13 (stage breakdown), Figure 14 (user-perceived time excluding
// transfer), Figure 15 (data transferred vs APK size), Figure 16 (runtime
// overhead vs AOSP), Figure 17 (Play-store install-size CDF), the pairing
// cost experiment, and the two expected failures. Each experiment prints
// the same rows/series the paper reports, alongside the paper's numbers
// where the paper gives them, so EXPERIMENTS.md can record paper-vs-measured.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"flux/internal/apps"
	"flux/internal/device"
	"flux/internal/faults"
	"flux/internal/migration"
	"flux/internal/obs"
	"flux/internal/pairing"
	"flux/internal/playstore"
	"flux/internal/services"
)

// Pair names one of the paper's four device combinations.
type Pair struct {
	Name  string
	Home  func(name string) device.Profile
	Guest func(name string) device.Profile
}

// Figure12Pairs returns the paper's four combinations in order.
func Figure12Pairs() []Pair {
	return []Pair{
		{Name: "Nexus 7 (2013) to Nexus 7 (2013)", Home: device.Nexus7_2013, Guest: device.Nexus7_2013},
		{Name: "Nexus 4 to Nexus 7 (2013)", Home: device.Nexus4, Guest: device.Nexus7_2013},
		{Name: "Nexus 7 to Nexus 7 (2013)", Home: device.Nexus7_2012, Guest: device.Nexus7_2013},
		{Name: "Nexus 7 to Nexus 4", Home: device.Nexus7_2012, Guest: device.Nexus4},
	}
}

// Cell is one migration of the evaluation matrix. Under fault
// injection (RunFaultMatrixWorkers) Seed is the cell's injector seed and
// the cell may end in a clean rollback to its home device: Err wraps
// migration.ErrRolledBack and Report is nil. Otherwise Err is nil.
type Cell struct {
	App    apps.App
	Pair   Pair
	Report *migration.Report
	Seed   int64
	Err    error
}

// RolledBack reports whether the cell ended in a clean rollback.
func (c Cell) RolledBack() bool { return errors.Is(c.Err, migration.ErrRolledBack) }

// RunOne pairs fresh devices, launches the app with its workload, and
// migrates it, returning the report. With telemetry enabled, the whole
// cell — pairing, workload, migration — runs under one "cell" span on the
// home device's virtual clock, with the migration's span tree nested
// inside it.
func RunOne(p Pair, a apps.App) (*migration.Report, error) {
	return RunOneOpts(p, a, migration.Options{})
}

// RunOneOpts is RunOne with migration options (the pipelined-streaming and
// ablation drivers use it). opts.Span is overridden with the cell span.
func RunOneOpts(p Pair, a apps.App, opts migration.Options) (rep *migration.Report, err error) {
	home, err := device.New(p.Home("home"))
	if err != nil {
		return nil, err
	}
	guest, err := device.New(p.Guest("guest"))
	if err != nil {
		return nil, err
	}
	cell := obs.T().Start("cell",
		obs.String("pair", p.Name),
		obs.String("app", a.Spec.Label),
	).SetVirtualClock(home.Kernel.Clock().Now)
	defer func() {
		if err != nil {
			cell.Attr(obs.String("error", err.Error()))
		}
		cell.End()
	}()
	if err := apps.Install(home, a); err != nil {
		return nil, err
	}
	if _, err := pairing.Pair(home, guest, []string{a.Spec.Package}); err != nil {
		return nil, err
	}
	if _, err := apps.Launch(home, a); err != nil {
		return nil, err
	}
	opts.Span = cell
	rep, err = migration.New(home, guest, opts).Migrate(a.Spec.Package)
	if err != nil {
		return nil, err
	}
	if !rep.StateConsistent() {
		return nil, fmt.Errorf("experiments: %s on %s: service state diverged", a.Spec.Label, p.Name)
	}
	return rep, nil
}

// DefaultMatrixWorkers returns the worker-pool size callers use for a
// host-sized pool: one worker per CPU, capped at 16.
func DefaultMatrixWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// ForEach calls fn(i) for every i in [0, n) on at most workers
// goroutines (at least one). It is the one worker pool behind the
// matrix, the fault matrix, the commuter itineraries and the fleet's
// profiling phase. Each call writes only its own index's results, so
// the output is identical at any width, and the error returned is the
// first in index order, whatever the scheduling.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunMatrixWorkers migrates all sixteen migratable apps across all four
// pairs — the 64 measurements behind Figures 12–15 — on a workers-wide
// pool. Cells come back pair-major in app-catalog order, and because
// each migration is a closed simulation with its own devices and
// virtual time, their content is byte-identical for every worker count.
// On error the first failing cell in matrix order is reported.
func RunMatrixWorkers(workers int) ([]Cell, error) {
	return RunMatrixWorkersOpts(workers, migration.Options{})
}

// RunMatrixWorkersOpts is RunMatrixWorkers with migration options
// applied to every cell.
func RunMatrixWorkersOpts(workers int, opts migration.Options) ([]Cell, error) {
	return runMatrix(workers, opts, 0, nil)
}

// runMatrix runs the 64-cell matrix with opts on every cell. A non-nil
// plan gives each cell its own injector, seeded by faults.Derive(seed,
// package, pair), and accepts clean rollbacks. Any other error aborts:
// under injection it means an app was lost, the one outcome the
// recovery contract forbids.
func runMatrix(workers int, opts migration.Options, seed int64, plan faults.Plan) ([]Cell, error) {
	pairs, migratable := Figure12Pairs(), apps.Migratable()
	cells := make([]Cell, len(pairs)*len(migratable))
	err := ForEach(workers, len(cells), func(i int) error {
		c := &cells[i]
		c.Pair, c.App = pairs[i/len(migratable)], migratable[i%len(migratable)]
		cellOpts := opts
		if plan != nil {
			c.Seed = faults.Derive(seed, c.App.Spec.Package, c.Pair.Name)
			cellOpts.Faults = faults.New(c.Seed, plan.Clone())
		}
		c.Report, c.Err = RunOneOpts(c.Pair, c.App, cellOpts)
		if c.Err == nil || plan != nil && c.RolledBack() {
			return nil
		}
		return fmt.Errorf("%s / %s: %w", c.App.Spec.Label, c.Pair.Name, c.Err)
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

func sec(d time.Duration) float64 { return d.Seconds() }
func mb(n int64) float64          { return float64(n) / (1 << 20) }

// Table2 prints the decorated-services table with paper vs measured
// numbers.
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Decorated services (paper methods / paper LOC vs measured subset methods / measured decoration LOC)")
	fmt.Fprintf(w, "%-28s %6s %9s %12s %12s\n", "SERVICE", "METHODS", "LOC", "OUR METHODS", "OUR DECO LOC")
	// Catalog is sorted by service name, and so is each half.
	var hw, sw []string
	for _, reg := range services.Catalog() {
		loc := fmt.Sprintf("%d", reg.PaperLOC)
		if reg.PaperLOC < 0 {
			loc = "TBD"
		}
		row := fmt.Sprintf("%-28s %6d %9s %12d %12d", reg.Descriptor, reg.PaperMethods, loc, reg.MeasuredMethods, reg.MeasuredLOC)
		if reg.Hardware {
			hw = append(hw, row)
		} else {
			sw = append(sw, row)
		}
	}
	fmt.Fprintln(w, "-- hardware services --")
	for _, row := range hw {
		fmt.Fprintln(w, row)
	}
	fmt.Fprintln(w, "-- software services --")
	for _, row := range sw {
		fmt.Fprintln(w, row)
	}
}

// Table3 prints the app/workload table.
func Table3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: Top free Android apps and their workloads")
	fmt.Fprintf(w, "%-20s %s\n", "NAME", "WORKLOAD")
	for _, a := range apps.Catalog() {
		fmt.Fprintf(w, "%-20s %s\n", a.Spec.Label, a.Workload)
	}
}

// Figure12 prints overall migration time per app per device pair.
func Figure12(w io.Writer, cells []Cell) {
	fmt.Fprintln(w, "Figure 12: Overall migration times (seconds)")
	printPerPair(w, cells, func(c Cell) float64 { return sec(c.Report.Timings.Total()) }, "%6.2f")
}

// Figure13 prints the average stage breakdown per app as percentages.
func Figure13(w io.Writer, cells []Cell) {
	fmt.Fprintln(w, "Figure 13: Breakdown of time spent during migration (% of total, averaged over device pairs)")
	fmt.Fprintf(w, "%-20s %6s %6s %6s %6s %6s\n", "APP", "PREP", "CKPT", "XFER", "RSTR", "REINT")
	byApp := groupByApp(cells)
	for _, label := range appOrder(cells) {
		var fr [5]float64
		for _, c := range byApp[label] {
			total := float64(c.Report.Timings.Total())
			for s := 0; s < 5; s++ {
				fr[s] += float64(c.Report.Timings[migration.Stage(s)]) / total * 100
			}
		}
		n := float64(len(byApp[label]))
		fmt.Fprintf(w, "%-20s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
			label, fr[0]/n, fr[1]/n, fr[2]/n, fr[3]/n, fr[4]/n)
	}
}

// Figure14 prints user-perceived migration time excluding the transfer
// stage.
func Figure14(w io.Writer, cells []Cell) {
	fmt.Fprintln(w, "Figure 14: User-perceived migration time excluding data transfer (seconds)")
	printPerPair(w, cells, func(c Cell) float64 { return sec(c.Report.Timings.ExcludingTransfer()) }, "%6.2f")
}

// Figure15 prints data transferred during migration alongside APK size.
func Figure15(w io.Writer, cells []Cell) {
	fmt.Fprintln(w, "Figure 15: Data transferred during migration (MB, averaged over device pairs) and APK size (MB)")
	fmt.Fprintf(w, "%-20s %12s %10s\n", "APP", "TRANSFERRED", "APK SIZE")
	byApp := groupByApp(cells)
	for _, label := range appOrder(cells) {
		var sum float64
		for _, c := range byApp[label] {
			sum += mb(c.Report.TransferredBytes)
		}
		a := byApp[label][0].App
		fmt.Fprintf(w, "%-20s %10.2fMB %8.1fMB\n", label, sum/float64(len(byApp[label])), a.APKMB)
	}
}

// Figure16 measures Selective Record overhead: six benchmarks on three
// device models, normalized to AOSP (recording off).
func Figure16(w io.Writer, iters int) error {
	fmt.Fprintln(w, "Figure 16: Benchmark scores normalized to AOSP (1.00 = no overhead)")
	profiles := []device.Profile{
		device.Nexus7_2012("n7"),
		device.Nexus4("n4"),
		device.Nexus7_2013("n7-2013"),
	}
	fmt.Fprintf(w, "%-14s", "BENCHMARK")
	for _, p := range profiles {
		fmt.Fprintf(w, " %16s", p.Model)
	}
	fmt.Fprintln(w)
	for _, b := range apps.Microbenches() {
		fmt.Fprintf(w, "%-14s", b.Name)
		for _, p := range profiles {
			res, err := apps.MeasureOverhead(p, b, iters)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %16.2f", res.Normalized)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure17 prints the Play-store install-size CDF and the preserve-EGL
// count.
func Figure17(w io.Writer, n int) {
	cat := playstore.Generate(n)
	fmt.Fprintf(w, "Figure 17: CDF of installation size over %d apps\n", cat.Len())
	fmt.Fprintf(w, "%14s %8s\n", "SIZE (KB)", "CDF")
	for _, pt := range cat.CDF(playstore.Figure17Thresholds()) {
		fmt.Fprintf(w, "%14d %8.3f\n", pt.SizeKB, pt.Frac)
	}
	fmt.Fprintf(w, "setPreserveEGLContextOnPause callers: %d of %d (%.2f%%), paper: %d of %d\n",
		cat.PreserveEGLCount(), cat.Len(),
		100*(1-cat.MigratableFraction()),
		playstore.PaperPreserveEGLCount, playstore.PaperCatalogSize)
}

// PairingCost runs the §4 pairing experiment: Nexus 7 → Nexus 7 (2013),
// both on KitKat.
func PairingCost(w io.Writer) error {
	home, err := device.New(device.Nexus7_2012("home-n7"))
	if err != nil {
		return err
	}
	guest, err := device.New(device.Nexus7_2013("guest-n7-2013"))
	if err != nil {
		return err
	}
	res, err := pairing.Pair(home, guest, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Pairing cost: Nexus 7 → Nexus 7 (2013), both KitKat")
	fmt.Fprintf(w, "  constant data:        %7.1f MB   (paper: 215 MB)\n", mb(res.ConstantBytes))
	fmt.Fprintf(w, "  after hard-linking:   %7.1f MB   (paper: 123 MB)\n", mb(res.TransferBytes))
	fmt.Fprintf(w, "  compressed delta:     %7.1f MB   (paper:  56 MB)\n", mb(res.CompressedBytes))
	fmt.Fprintf(w, "  link-dest savings:    %7.1f MB\n", mb(res.LinkedBytes))
	fmt.Fprintf(w, "  modelled duration:    %7.1f s\n", sec(res.Duration))
	return nil
}

// Failures demonstrates the paper's two expected failures with their
// reasons.
func Failures(w io.Writer) error {
	fmt.Fprintln(w, "Expected failures (paper §4):")
	for _, pkg := range []string{"com.facebook.katana", "com.kiloo.subwaysurf"} {
		a := apps.ByPackage(pkg)
		home, err := device.New(device.Nexus4("home"))
		if err != nil {
			return err
		}
		guest, err := device.New(device.Nexus7_2013("guest"))
		if err != nil {
			return err
		}
		if err := apps.Install(home, *a); err != nil {
			return err
		}
		if _, err := pairing.Pair(home, guest, []string{pkg}); err != nil {
			return err
		}
		if _, err := apps.Launch(home, *a); err != nil {
			return err
		}
		_, err = migration.New(home, guest, migration.Options{}).Migrate(pkg)
		if err == nil {
			return fmt.Errorf("experiments: %s migrated but the paper says it must not", a.Spec.Label)
		}
		fmt.Fprintf(w, "  %-18s refused: %v\n", a.Spec.Label, err)
	}
	return nil
}

// Summary aggregates the matrix into the paper's §4 headline numbers.
func Summary(w io.Writer, cells []Cell) {
	var total, user, exclXfer, xferFrac float64
	var maxWire int64
	for _, c := range cells {
		total += sec(c.Report.Timings.Total())
		user += sec(c.Report.Timings.UserPerceived())
		exclXfer += sec(c.Report.Timings.ExcludingTransfer())
		xferFrac += float64(c.Report.Timings[migration.StageTransfer]) / float64(c.Report.Timings.Total())
		if c.Report.TransferredBytes > maxWire {
			maxWire = c.Report.TransferredBytes
		}
	}
	n := float64(len(cells))
	fmt.Fprintln(w, "Evaluation summary (measured vs paper):")
	fmt.Fprintf(w, "  migrations run:                 %4d      (paper: 64 = 16 apps x 4 pairs)\n", len(cells))
	fmt.Fprintf(w, "  avg migration time:          %6.2f s    (paper: 7.88 s)\n", total/n)
	fmt.Fprintf(w, "  avg user-perceived time:     %6.2f s    (paper: ~5.8 s)\n", user/n)
	fmt.Fprintf(w, "  avg time excl. transfer:     %6.2f s    (paper: 1.35 s)\n", exclXfer/n)
	fmt.Fprintf(w, "  avg transfer share of total: %6.1f %%    (paper: >50%%)\n", 100*xferFrac/n)
	fmt.Fprintf(w, "  max data transferred:        %6.2f MB   (paper: <=14 MB)\n", mb(maxWire))
}

// printPerPair prints one row per app with a column per device pair.
func printPerPair(w io.Writer, cells []Cell, metric func(Cell) float64, format string) {
	pairs := Figure12Pairs()
	fmt.Fprintf(w, "%-20s", "APP")
	for _, p := range pairs {
		fmt.Fprintf(w, " %-30s", p.Name)
	}
	fmt.Fprintln(w)
	byApp := groupByApp(cells)
	for _, label := range appOrder(cells) {
		fmt.Fprintf(w, "%-20s", label)
		for _, p := range pairs {
			val := "      -"
			for _, c := range byApp[label] {
				if c.Pair.Name == p.Name {
					val = fmt.Sprintf(format, metric(c))
				}
			}
			fmt.Fprintf(w, " %-30s", val)
		}
		fmt.Fprintln(w)
	}
}

func groupByApp(cells []Cell) map[string][]Cell {
	out := make(map[string][]Cell)
	for _, c := range cells {
		out[c.App.Spec.Label] = append(out[c.App.Spec.Label], c)
	}
	return out
}

func appOrder(cells []Cell) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cells {
		if !seen[c.App.Spec.Label] {
			seen[c.App.Spec.Label] = true
			out = append(out, c.App.Spec.Label)
		}
	}
	return out
}

// Ablations ---------------------------------------------------------------

// AblationSelectiveVsFull compares Selective Record against full recording
// for one app workload: log entries and serialized bytes.
func AblationSelectiveVsFull(w io.Writer, a apps.App) error {
	type result struct {
		entries int
		bytes   int
	}
	run := func(full bool) (result, error) {
		dev, err := device.New(device.Nexus4("ablate"))
		if err != nil {
			return result{}, err
		}
		if full {
			for _, reg := range services.Catalog() {
				dev.Recorder.SetFullRecord(reg.Descriptor, true)
			}
		}
		if _, err := apps.Launch(dev, a); err != nil {
			return result{}, err
		}
		return result{
			entries: len(dev.Recorder.Log().AppEntries(a.Spec.Package)),
			bytes:   dev.Recorder.Log().SizeBytes(a.Spec.Package),
		}, nil
	}
	sel, err := run(false)
	if err != nil {
		return err
	}
	full, err := run(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation (selective vs full record), app %s:\n", a.Spec.Label)
	fmt.Fprintf(w, "  selective: %3d entries, %6d bytes\n", sel.entries, sel.bytes)
	fmt.Fprintf(w, "  full:      %3d entries, %6d bytes\n", full.entries, full.bytes)
	return nil
}

// AblationPrep reports how much device-specific state the preparation phase
// (background → trim → eglUnload) removes before checkpointing.
func AblationPrep(w io.Writer, a apps.App) error {
	dev, err := device.New(device.Nexus4("ablate-prep"))
	if err != nil {
		return err
	}
	s, err := apps.Launch(dev, a)
	if err != nil {
		return err
	}
	app := s.App
	before := app.Process().MemoryBytes() + dev.Kernel.Pmem.UsedBy(app.Process().PID())
	residentBefore := len(app.DeviceSpecificResident())
	dev.Runtime.MoveToBackground(app)
	dev.Kernel.Clock().Advance(dev.Runtime.IdleWait())
	if err := app.HandleTrimMemory(); err != nil {
		return err
	}
	if err := app.EGLUnload(); err != nil {
		return err
	}
	after := app.Process().MemoryBytes() + dev.Kernel.Pmem.UsedBy(app.Process().PID())
	fmt.Fprintf(w, "Ablation (preparation phase), app %s:\n", a.Spec.Label)
	fmt.Fprintf(w, "  resident before prep: %6.2f MB (%d device-specific items)\n", mb(before), residentBefore)
	fmt.Fprintf(w, "  resident after prep:  %6.2f MB (%d device-specific items)\n", mb(after), len(app.DeviceSpecificResident()))
	fmt.Fprintf(w, "  discarded:            %6.2f MB of device-tied state\n", mb(before-after))
	return nil
}

// AblationLinkDest compares pairing with and without --link-dest reuse.
func AblationLinkDest(w io.Writer) error {
	run := func(useLinkDest bool) (int64, error) {
		home, err := device.New(device.Nexus7_2012("h"))
		if err != nil {
			return 0, err
		}
		guest, err := device.New(device.Nexus7_2013("g"))
		if err != nil {
			return 0, err
		}
		if useLinkDest {
			res, err := pairing.Pair(home, guest, nil)
			if err != nil {
				return 0, err
			}
			return res.CompressedBytes, nil
		}
		// Without link-dest every file is a transfer.
		var total int64
		for _, f := range home.SystemTree().Files() {
			total += f.CompressedSize()
		}
		return total, nil
	}
	with, err := run(true)
	if err != nil {
		return err
	}
	without, err := run(false)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation (pairing --link-dest):")
	fmt.Fprintf(w, "  with link-dest:    %6.1f MB compressed\n", mb(with))
	fmt.Fprintf(w, "  without link-dest: %6.1f MB compressed\n", mb(without))
	return nil
}

// AblationCompression compares migrations with and without image
// compression for one app.
func AblationCompression(w io.Writer, a apps.App) error {
	run := func(skip bool) (*migration.Report, error) {
		home, err := device.New(device.Nexus4("h"))
		if err != nil {
			return nil, err
		}
		guest, err := device.New(device.Nexus7_2013("g"))
		if err != nil {
			return nil, err
		}
		if err := apps.Install(home, a); err != nil {
			return nil, err
		}
		if _, err := pairing.Pair(home, guest, []string{a.Spec.Package}); err != nil {
			return nil, err
		}
		if _, err := apps.Launch(home, a); err != nil {
			return nil, err
		}
		return migration.New(home, guest, migration.Options{SkipCompression: skip}).Migrate(a.Spec.Package)
	}
	comp, err := run(false)
	if err != nil {
		return err
	}
	raw, err := run(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation (checkpoint compression), app %s:\n", a.Spec.Label)
	fmt.Fprintf(w, "  compressed: %6.2f MB wire, transfer %5.2f s\n", mb(comp.TransferredBytes), sec(comp.Timings[migration.StageTransfer]))
	fmt.Fprintf(w, "  raw:        %6.2f MB wire, transfer %5.2f s\n", mb(raw.TransferredBytes), sec(raw.Timings[migration.StageTransfer]))
	return nil
}

// AblationPostCopy compares standard migration against the paper's
// proposed post-copy transfer (§4: "deferring memory transfer using
// techniques such as post copy supplemented with adaptive pre-paging").
func AblationPostCopy(w io.Writer, a apps.App) error {
	run := func(postCopy bool) (*migration.Report, error) {
		home, err := device.New(device.Nexus4("h"))
		if err != nil {
			return nil, err
		}
		guest, err := device.New(device.Nexus7_2013("g"))
		if err != nil {
			return nil, err
		}
		if err := apps.Install(home, a); err != nil {
			return nil, err
		}
		if _, err := pairing.Pair(home, guest, []string{a.Spec.Package}); err != nil {
			return nil, err
		}
		if _, err := apps.Launch(home, a); err != nil {
			return nil, err
		}
		return migration.New(home, guest, migration.Options{PostCopy: postCopy}).Migrate(a.Spec.Package)
	}
	normal, err := run(false)
	if err != nil {
		return err
	}
	post, err := run(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation (post-copy memory transfer), app %s:\n", a.Spec.Label)
	fmt.Fprintf(w, "  stop-and-copy: user-perceived %5.2f s, transfer stage %5.2f s\n",
		sec(normal.Timings.UserPerceived()), sec(normal.Timings[migration.StageTransfer]))
	fmt.Fprintf(w, "  post-copy:     user-perceived %5.2f s, transfer stage %5.2f s (%5.2f MB streamed in background)\n",
		sec(post.Timings.UserPerceived()), sec(post.Timings[migration.StageTransfer]),
		mb(post.PostCopyResidualBytes))
	return nil
}

// AblationPipeline compares the three transfer strategies — sequential
// stop-and-copy, the streaming pipeline (chunked checkpoint/compress/
// transfer/restore overlap), and post-copy deferral — for one app across
// every Figure-13 device pair. Bytes moved are identical in all three
// modes; only where the time goes changes.
func AblationPipeline(w io.Writer, a apps.App) error {
	fmt.Fprintf(w, "Ablation (streaming pipeline), app %s:\n", a.Spec.Label)
	for _, p := range Figure12Pairs() {
		seq, err := RunOneOpts(p, a, migration.Options{})
		if err != nil {
			return err
		}
		pip, err := RunOneOpts(p, a, migration.Options{Pipelined: true})
		if err != nil {
			return err
		}
		post, err := RunOneOpts(p, a, migration.Options{PostCopy: true})
		if err != nil {
			return err
		}
		if pip.TransferredBytes != seq.TransferredBytes {
			return fmt.Errorf("experiments: pipeline changed bytes on %s: %d vs %d",
				p.Name, pip.TransferredBytes, seq.TransferredBytes)
		}
		fmt.Fprintf(w, "  %-28s sequential %5.2f s | pipelined %5.2f s (saves %5.2f s, %4.1f%%, %d chunks) | post-copy %5.2f s\n",
			p.Name+":",
			sec(seq.Timings.UserPerceived()),
			sec(pip.Timings.UserPerceived()),
			sec(pip.PipelineSavings),
			100*sec(pip.PipelineSavings)/sec(seq.Timings.UserPerceived()),
			pip.PipelineChunks,
			sec(post.Timings.UserPerceived()))
	}
	return nil
}

// Config parameterises an evaluation run.
type Config struct {
	// Workers is the matrix worker-pool width; < 1 sizes it to the host.
	Workers int
	// BenchIters is Figure 16's iterations per benchmark (wall-clock).
	BenchIters int
	// PlayN is Figure 17's catalog size.
	PlayN int
}

// evaluation is the state the sections of one run share.
type evaluation struct {
	w     io.Writer
	cfg   Config
	cells []Cell // the 64-cell matrix, when a selected section renders it
}

// section is one timed entry of the evaluation. A section that renders
// the 64-cell matrix sets matrix; Evaluate runs the matrix once, before
// the first section, and times it as its own "matrix" section.
type section struct {
	name   string
	matrix bool
	run    func(e *evaluation) (map[string]float64, error)
}

// sections is the paper's §4 in order: Tables 2–3, Figures 12–17, the
// pairing cost, the two refusals, the headline summary, and the design
// ablations. It is the one list of what the evaluation regenerates.
var sections = []section{
	{"table2", false, func(e *evaluation) (map[string]float64, error) { Table2(e.w); return nil, nil }},
	{"table3", false, func(e *evaluation) (map[string]float64, error) { Table3(e.w); return nil, nil }},
	{"figure12", true, func(e *evaluation) (map[string]float64, error) {
		Figure12(e.w, e.cells)
		return pick(MatrixMetrics(e.cells), "avg_virtual_migration_s"), nil
	}},
	{"figure13", true, func(e *evaluation) (map[string]float64, error) {
		Figure13(e.w, e.cells)
		return pick(MatrixMetrics(e.cells), "avg_transfer_share_pct"), nil
	}},
	{"figure14", true, func(e *evaluation) (map[string]float64, error) {
		Figure14(e.w, e.cells)
		return pick(MatrixMetrics(e.cells), "avg_excl_transfer_s"), nil
	}},
	{"figure15", true, func(e *evaluation) (map[string]float64, error) {
		Figure15(e.w, e.cells)
		return pick(MatrixMetrics(e.cells), "avg_transferred_mb", "max_transferred_mb"), nil
	}},
	{"figure16", false, func(e *evaluation) (map[string]float64, error) { return nil, Figure16(e.w, e.cfg.BenchIters) }},
	{"figure17", false, func(e *evaluation) (map[string]float64, error) { Figure17(e.w, e.cfg.PlayN); return nil, nil }},
	{"pairing", false, func(e *evaluation) (map[string]float64, error) { return nil, PairingCost(e.w) }},
	{"failures", false, func(e *evaluation) (map[string]float64, error) { return nil, Failures(e.w) }},
	{"summary", true, func(e *evaluation) (map[string]float64, error) {
		Summary(e.w, e.cells)
		return MatrixMetrics(e.cells), nil
	}},
	{"ablation_selective_vs_full", false, func(e *evaluation) (map[string]float64, error) {
		return nil, AblationSelectiveVsFull(e.w, candyCrush())
	}},
	{"ablation_prep", false, func(e *evaluation) (map[string]float64, error) { return nil, AblationPrep(e.w, candyCrush()) }},
	{"ablation_link_dest", false, func(e *evaluation) (map[string]float64, error) { return nil, AblationLinkDest(e.w) }},
	{"ablation_compression", false, func(e *evaluation) (map[string]float64, error) {
		return nil, AblationCompression(e.w, *apps.ByPackage("com.netflix.mediaclient"))
	}},
	{"ablation_post_copy", false, func(e *evaluation) (map[string]float64, error) {
		return nil, AblationPostCopy(e.w, candyCrush())
	}},
	{"ablation_pipeline", false, func(e *evaluation) (map[string]float64, error) {
		return nil, AblationPipeline(e.w, candyCrush())
	}},
	{"ablation_faults", false, func(e *evaluation) (map[string]float64, error) {
		return nil, AblationFaults(e.w, candyCrush(), 1)
	}},
}

// candyCrush is the headline app most ablations use.
func candyCrush() apps.App { return *apps.ByPackage("com.king.candycrushsaga") }

// pick projects m onto keys.
func pick(m map[string]float64, keys ...string) map[string]float64 {
	out := make(map[string]float64, len(keys))
	for _, k := range keys {
		out[k] = m[k]
	}
	return out
}

// SectionNames lists the evaluation's sections in the order Evaluate
// runs them. The "matrix" section Evaluate times ahead of them is not
// selectable on its own.
func SectionNames() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}

// Evaluate regenerates the named sections — every section when names is
// empty — in paper order, writing the text evaluation to w with a rule
// between sections. It returns each section's wall-clock cost and
// virtual-time metrics, led by a "matrix" section when any of them
// renders the matrix. An unknown name is an error.
func Evaluate(w io.Writer, cfg Config, names ...string) (*Results, error) {
	if cfg.Workers < 1 {
		cfg.Workers = DefaultMatrixWorkers()
	}
	selected := make(map[string]bool, len(names))
	for _, n := range names {
		selected[n] = true
	}
	var run []section
	needMatrix := false
	for _, s := range sections {
		if len(names) == 0 || selected[s.name] {
			run = append(run, s)
			needMatrix = needMatrix || s.matrix
			delete(selected, s.name)
		}
	}
	for _, n := range names {
		if selected[n] {
			return nil, fmt.Errorf("experiments: no evaluation section %q", n)
		}
	}
	res := NewResults(cfg.Workers)
	e := &evaluation{w: w, cfg: cfg}
	if needMatrix {
		if err := res.Time("matrix", func() (map[string]float64, error) {
			var err error
			e.cells, err = RunMatrixWorkers(cfg.Workers)
			return MatrixMetrics(e.cells), err
		}); err != nil {
			return nil, err
		}
	}
	for i, s := range run {
		if i > 0 {
			fmt.Fprintln(w, strings.Repeat("-", 72))
		}
		if err := res.Time(s.name, func() (map[string]float64, error) { return s.run(e) }); err != nil {
			return nil, err
		}
	}
	return res, nil
}
