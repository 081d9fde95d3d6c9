package lab

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"flux/internal/experiments"
	"flux/internal/fleet"
	"flux/internal/migration"
	"flux/internal/obs"
)

// ReportSchemaVersion versions the lab-report JSON layout.
const ReportSchemaVersion = 1

// HeadlineFaultRate is the fault rate the battery's fault runs use when
// the spec does not sweep one — the PR-4 acceptance point.
const HeadlineFaultRate = 0.15

// Report is the deterministic product of one lab run: everything in it
// is a function of (spec, seed) on virtual time, so identical inputs
// produce byte-identical reports at any worker-pool width. Provenance
// that varies between hosts (wall-clock, git SHA, execution width) lives
// on the trajectory Record wrapper, never here.
type Report struct {
	Schema   int    `json:"schema"`
	SpecName string `json:"spec_name"`
	SpecHash string `json:"spec_hash"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Cells are the sweep cells in canonical ID order.
	Cells []CellStats `json:"cells"`
	// Calibration scores the run against the paper reference.
	Calibration *Calibration `json:"calibration"`
	// Counterfactual re-prices the matrix under the modes not chosen.
	Counterfactual *CounterfactualReport `json:"counterfactual"`
	// Signals is the strong-signal battery, one named verdict per
	// invariant.
	Signals       []Signal `json:"signals"`
	SignalsPassed int      `json:"signals_passed"`
	SignalsFailed int      `json:"signals_failed"`
}

// Failed reports whether any signal (including the calibration gates,
// which are signals) failed.
func (r *Report) Failed() bool { return r.SignalsFailed > 0 }

// runData is everything the battery, calibration, and counterfactual
// analysis consume. The Runner populates it once; checks never re-run
// simulations.
type runData struct {
	spec    Spec
	workers int

	baseline  []experiments.Cell // clean sequential matrix at the run width
	width1    []experiments.Cell // same matrix at width 1
	repeat    []experiments.Cell // same matrix re-run (repeat stability)
	pipelined []experiments.Cell // Options{Pipelined}
	postcopy  []experiments.Cell // Options{PostCopy}

	faulted       []experiments.Cell // headline-rate fault matrix
	faultedRepeat []experiments.Cell // same seed re-run
	faultedZero   []experiments.Cell // zero-rate fault matrix

	commuter    []*experiments.CommuterRun // sequential delta commuter
	commuterPip []*experiments.CommuterRun // pipelined delta commuter

	traced      *migration.Report // one traced migration...
	tracedSpans []obs.SpanData    // ...and its span tree
}

// Runner executes a spec. Workers is the execution width (0 = one per
// CPU); it changes wall-clock only, never report bytes. Progress, when
// non-nil, receives human-oriented progress lines (wall-clock permitted
// there — it is never part of the report).
type Runner struct {
	Spec     Spec
	Workers  int
	Progress io.Writer
}

func (r *Runner) progressf(format string, args ...any) {
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, format, args...)
	}
}

// Run executes the spec: the core battery (the invariant corpus every
// run validates), the spec's sweep cells, calibration, counterfactual
// analysis, and the signal battery.
func (r *Runner) Run() (*Report, error) {
	spec := r.Spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := r.Workers
	if workers < 1 {
		workers = experiments.DefaultMatrixWorkers()
	}
	data := &runData{spec: spec, workers: workers}

	// Core battery: the shared corpus the signals interrogate. Every lab
	// run executes it regardless of scenario, so every run reports the
	// full signal catalog.
	var err error
	r.progressf("lab: baseline matrix (workers=%d)\n", workers)
	if data.baseline, err = experiments.RunMatrixWorkers(workers); err != nil {
		return nil, fmt.Errorf("lab: baseline matrix: %w", err)
	}
	r.progressf("lab: width-1 matrix\n")
	if data.width1, err = experiments.RunMatrixWorkers(1); err != nil {
		return nil, fmt.Errorf("lab: width-1 matrix: %w", err)
	}
	r.progressf("lab: repeat matrix\n")
	if data.repeat, err = experiments.RunMatrixWorkers(workers); err != nil {
		return nil, fmt.Errorf("lab: repeat matrix: %w", err)
	}
	r.progressf("lab: pipelined matrix\n")
	if data.pipelined, err = experiments.RunMatrixWorkersOpts(workers, migration.Options{Pipelined: true}); err != nil {
		return nil, fmt.Errorf("lab: pipelined matrix: %w", err)
	}
	r.progressf("lab: post-copy matrix\n")
	if data.postcopy, err = experiments.RunMatrixWorkersOpts(workers, migration.Options{PostCopy: true}); err != nil {
		return nil, fmt.Errorf("lab: post-copy matrix: %w", err)
	}
	r.progressf("lab: fault matrix (rate=%.2f, seed=%d)\n", HeadlineFaultRate, spec.Seed)
	if data.faulted, err = experiments.RunFaultMatrixWorkers(workers, spec.Seed, experiments.DefaultFaultPlan(HeadlineFaultRate)); err != nil {
		return nil, fmt.Errorf("lab: fault matrix: %w", err)
	}
	if data.faultedRepeat, err = experiments.RunFaultMatrixWorkers(workers, spec.Seed, experiments.DefaultFaultPlan(HeadlineFaultRate)); err != nil {
		return nil, fmt.Errorf("lab: fault matrix repeat: %w", err)
	}
	if data.faultedZero, err = experiments.RunFaultMatrixWorkers(workers, spec.Seed, experiments.DefaultFaultPlan(0)); err != nil {
		return nil, fmt.Errorf("lab: zero-rate fault matrix: %w", err)
	}
	r.progressf("lab: commuter itineraries (K=%d)\n", spec.Sweep.RoundTrips)
	baseCommuter := experiments.DefaultCommuterSpec()
	baseCommuter.RoundTrips = spec.Sweep.RoundTrips
	baseCommuter.Seed = spec.Seed
	if data.commuter, err = experiments.RunCommuter(workers, baseCommuter); err != nil {
		return nil, fmt.Errorf("lab: commuter: %w", err)
	}
	pipCommuter := baseCommuter
	pipCommuter.Pipelined = true
	if data.commuterPip, err = experiments.RunCommuter(workers, pipCommuter); err != nil {
		return nil, fmt.Errorf("lab: commuter: %w", err)
	}
	r.progressf("lab: traced migration\n")
	if data.traced, data.tracedSpans, err = runTraced(); err != nil {
		return nil, fmt.Errorf("lab: traced migration: %w", err)
	}

	// Sweep cells.
	cells, err := r.runSweep(spec, workers, data)
	if err != nil {
		return nil, err
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID })

	cal, err := Calibrate(data.baseline, spec.Criteria)
	if err != nil {
		return nil, err
	}
	cf := Counterfactualize(data.baseline, data.pipelined, data.postcopy, spec.CounterfactualK)

	rep := &Report{
		Schema:         ReportSchemaVersion,
		SpecName:       spec.Name,
		SpecHash:       spec.Hash(),
		Scenario:       spec.Scenario,
		Seed:           spec.Seed,
		Cells:          cells,
		Calibration:    cal,
		Counterfactual: cf,
	}
	rep.Signals = RunBattery(data, cal, cf, rep)
	for _, s := range rep.Signals {
		if s.Pass {
			rep.SignalsPassed++
		} else {
			rep.SignalsFailed++
		}
	}
	return rep, nil
}

// runSweep executes the spec's sweep cells.
func (r *Runner) runSweep(spec Spec, workers int, data *runData) ([]CellStats, error) {
	var cells []CellStats
	for rep := 1; rep <= spec.Repetitions; rep++ {
		switch spec.Scenario {
		case ScenarioMatrix:
			for _, w := range spec.Sweep.Workers {
				for _, pip := range spec.Sweep.Pipelined {
					width, widthLabel := w, strconv.Itoa(w)
					if w == 0 {
						width, widthLabel = workers, "default"
					}
					params := map[string]string{
						"scenario":  ScenarioMatrix,
						"workers":   widthLabel,
						"pipelined": strconv.FormatBool(pip),
						"rep":       strconv.Itoa(rep),
					}
					r.progressf("lab: sweep cell workers=%s pipelined=%v rep=%d\n", widthLabel, pip, rep)
					mc, err := experiments.RunMatrixWorkersOpts(width, migration.Options{Pipelined: pip})
					if err != nil {
						return nil, fmt.Errorf("lab: sweep matrix cell: %w", err)
					}
					cells = append(cells, statsFromCells(params, mc))
				}
			}
		case ScenarioFaults:
			for _, rate := range spec.Sweep.FaultRates {
				seed := spec.Seed + int64(rep-1)
				params := map[string]string{
					"scenario":   ScenarioFaults,
					"fault_rate": fmtFloat(rate),
					"rep":        strconv.Itoa(rep),
				}
				r.progressf("lab: sweep cell fault_rate=%g rep=%d\n", rate, rep)
				fc, err := experiments.RunFaultMatrixWorkers(workers, seed, experiments.DefaultFaultPlan(rate))
				if err != nil {
					return nil, fmt.Errorf("lab: sweep fault cell: %w", err)
				}
				cells = append(cells, statsFromCells(params, fc))
			}
		case ScenarioFleet:
			for _, devices := range spec.Sweep.FleetDevices {
				seed := spec.Seed + int64(rep-1)
				params := map[string]string{
					"scenario": ScenarioFleet,
					"devices":  strconv.Itoa(devices),
					"rep":      strconv.Itoa(rep),
				}
				r.progressf("lab: sweep cell devices=%d rep=%d\n", devices, rep)
				fspec := fleet.ScaledSpec(spec.Name, devices, spec.Sweep.FleetMigrations, seed)
				res, err := fleet.Run(fspec, fleet.Options{Workers: workers})
				if err != nil {
					return nil, fmt.Errorf("lab: sweep fleet cell: %w", err)
				}
				cells = append(cells, statsFromFleet(params, res))
			}
		case ScenarioCommuter:
			for _, dirty := range spec.Sweep.DirtyFracs {
				for _, budget := range spec.Sweep.CacheBudgets {
					for _, pip := range spec.Sweep.Pipelined {
						cspec := experiments.DefaultCommuterSpec()
						cspec.RoundTrips = spec.Sweep.RoundTrips
						cspec.DirtyRate = dirty
						cspec.CacheBudget = budget
						cspec.Pipelined = pip
						cspec.Seed = spec.Seed + int64(rep-1)
						params := map[string]string{
							"scenario":     ScenarioCommuter,
							"dirty":        fmtFloat(dirty),
							"cache_budget": strconv.FormatInt(budget, 10),
							"pipelined":    strconv.FormatBool(pip),
							"rep":          strconv.Itoa(rep),
						}
						r.progressf("lab: sweep cell dirty=%g budget=%d pipelined=%v rep=%d\n", dirty, budget, pip, rep)
						runs, err := experiments.RunCommuter(workers, cspec)
						if err != nil {
							return nil, fmt.Errorf("lab: commuter: %w", err)
						}
						cells = append(cells, statsFromReports(params, commuterReportsOf(runs), 0))
					}
				}
			}
		}
	}
	return cells, nil
}

// runTraced runs one migration with telemetry enabled and returns its
// report plus the captured span tree, for the span-equality signal. The
// global tracer is reset around the run and telemetry is restored to its
// prior enablement.
func runTraced() (*migration.Report, []obs.SpanData, error) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	obs.Reset()
	defer func() {
		obs.Reset()
		obs.SetEnabled(wasEnabled)
	}()
	pairs := experiments.Figure12Pairs()
	rep, err := experiments.RunOne(pairs[1], experiments.CommuterApp())
	if err != nil {
		return nil, nil, err
	}
	return rep, obs.T().Snapshot(), nil
}

// Render writes the deterministic text report: signal battery,
// calibration, counterfactual top-K, and the per-cell table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "fluxlab report: spec %s (scenario %s, seed %d)\n", r.SpecName, r.Scenario, r.Seed)
	fmt.Fprintf(w, "spec hash: %s\n\n", r.SpecHash)

	fmt.Fprintf(w, "Signals: %d passed, %d failed of %d\n", r.SignalsPassed, r.SignalsFailed, len(r.Signals))
	for _, s := range r.Signals {
		fmt.Fprintf(w, "  [%s] %-34s %s\n", verdict(s.Pass), s.Name, s.Evidence)
	}
	fmt.Fprintln(w)

	r.Calibration.Render(w)
	fmt.Fprintln(w)
	r.Counterfactual.Render(w)
	fmt.Fprintln(w)

	fmt.Fprintf(w, "Sweep cells (%d):\n", len(r.Cells))
	fmt.Fprintf(w, "  %-62s %5s %9s %9s %9s %10s %6s %6s %6s\n",
		"CELL", "MIGR", "TOTALp50", "TOTALp99", "USERp50", "WIRE", "ROLLBK", "RETRY", "HITS")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "  %-62s %5d %8.2fs %8.2fs %8.2fs %8.2fMB %6d %6d %6d\n",
			c.ID, c.Migrations, c.TotalP50S, c.TotalP99S, c.UserP50S, float64(c.WireBytes)/(1<<20),
			c.RolledBack, c.Retries, c.CacheHits+c.CacheRollingHits)
	}
}
