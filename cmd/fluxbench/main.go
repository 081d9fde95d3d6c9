// Command fluxbench regenerates the tables and figures of the Flux paper's
// evaluation (EuroSys'15, §4) from the simulation.
//
// Usage:
//
//	fluxbench -all                 # everything, in paper order
//	fluxbench -table 2             # decorated services
//	fluxbench -table 3             # app workloads
//	fluxbench -fig 12              # overall migration times
//	fluxbench -fig 13              # stage breakdown
//	fluxbench -fig 14              # user-perceived time excl. transfer
//	fluxbench -fig 15              # data transferred vs APK size
//	fluxbench -fig 16              # overhead vs AOSP (wall-clock!)
//	fluxbench -fig 17              # Play-store install-size CDF
//	fluxbench -pairing             # pairing cost experiment
//	fluxbench -failures            # Facebook / Subway Surfers refusals
//	fluxbench -summary             # headline numbers vs paper
//	fluxbench -ablations           # design ablations
//
// Every mode flag selects sections, by name, from the one ordered section
// table in internal/experiments that -all runs whole, so a section's text
// and JSON are the same whichever way it was selected. The scenarios this
// reproduction adds beyond §4 (streaming pipeline, fault matrix, commuter)
// are fluxlab specs under lab/specs.
//
// The 64-migration evaluation matrix runs on a bounded worker pool
// (-workers, default: one per CPU); its output is byte-identical for any
// worker count. Alongside the text output, fluxbench writes per-section
// wall-clock and virtual-time measurements to -json (default
// BENCH_results.json; pass -json "" to disable).
//
// -trace enables telemetry and writes every migration's span tree
// (one "cell" tree per matrix entry) as Chrome trace-event JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"flux/internal/experiments"
	"flux/internal/obs"
	"flux/internal/profiling"
)

// options is a parsed, validated command line.
type options struct {
	sections   []string // section names to regenerate, in table order
	cfg        experiments.Config
	jsonPath   string
	tracePath  string
	cpuProfile string
	memProfile string
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // parseArgs has printed the error and the usage
	}
	if o.tracePath != "" {
		obs.SetEnabled(true)
	}
	prof, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxbench:", err)
		os.Exit(1)
	}
	err = run(os.Stdout, o)
	prof.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxbench:", err)
		os.Exit(1)
	}
	if o.tracePath != "" {
		if err := obs.T().WriteChromeTraceFile(o.tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "fluxbench: writing trace:", err)
			os.Exit(1)
		}
		total, dropped := obs.T().Stats()
		fmt.Fprintf(os.Stderr, "fluxbench: wrote %s (%d spans kept, %d dropped by the ring)\n",
			o.tracePath, total-dropped, dropped)
	}
}

// parseArgs parses and validates a command line. Parse errors and
// invalid combinations print the usage to stderr and fail before any
// simulation runs.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("fluxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o         options
		table     = fs.Int("table", 0, "regenerate a table (2 or 3)")
		fig       = fs.Int("fig", 0, "regenerate a figure (12-17)")
		pairing   = fs.Bool("pairing", false, "pairing cost experiment")
		failures  = fs.Bool("failures", false, "expected failures")
		summary   = fs.Bool("summary", false, "headline summary vs paper")
		ablations = fs.Bool("ablations", false, "design ablations")
		all       = fs.Bool("all", false, "everything, in paper order")
	)
	fs.IntVar(&o.cfg.BenchIters, "bench-iters", 2000, "iterations per Figure 16 benchmark")
	fs.IntVar(&o.cfg.PlayN, "play-n", 488259, "Figure 17 catalog size")
	fs.IntVar(&o.cfg.Workers, "workers", 0, "migration-matrix worker pool size (0 = one per CPU)")
	fs.StringVar(&o.jsonPath, "json", "BENCH_results.json", "write machine-readable results here (empty = off)")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON file of all migration span trees")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile here")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile here")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, *table, *fig); err != nil {
		fmt.Fprintln(stderr, "fluxbench:", err)
		fs.Usage()
		return nil, err
	}
	o.sections = selectSections(*all, *table, *fig, *pairing, *failures, *summary, *ablations)
	return &o, nil
}

// modeFlagNames are the flags that each select sections to run.
// Exactly one way of choosing work is allowed: either -all, or any
// combination of these.
var modeFlagNames = []string{"table", "fig", "pairing", "failures", "summary", "ablations"}

// validateFlags checks the explicitly-set flag combination (set is
// populated by flag.Visit) before any simulation runs, so a bad
// invocation fails fast with usage instead of half-running or silently
// no-oping.
func validateFlags(set map[string]bool, table, fig int) error {
	var modes []string
	for _, m := range modeFlagNames {
		if set[m] {
			modes = append(modes, "-"+m)
		}
	}
	switch {
	case set["all"] && len(modes) > 0:
		return fmt.Errorf("-all already runs everything; drop %s", strings.Join(modes, ", "))
	case !set["all"] && len(modes) == 0:
		return fmt.Errorf("nothing to run: pick -all or a mode flag (-table, -fig, -summary, ...)")
	}
	if set["table"] && table != 2 && table != 3 {
		return fmt.Errorf("no table %d in the paper's evaluation (want 2 or 3)", table)
	}
	if set["fig"] && (fig < 12 || fig > 17) {
		return fmt.Errorf("no figure %d in the paper's evaluation (want 12-17)", fig)
	}
	if set["bench-iters"] && !set["all"] && fig != 16 {
		return fmt.Errorf("-bench-iters only applies with -fig 16 or -all")
	}
	if set["play-n"] && !set["all"] && fig != 17 {
		return fmt.Errorf("-play-n only applies with -fig 17 or -all")
	}
	return nil
}

// selectSections maps validated mode flags to section names of
// experiments.SectionNames, in table order.
func selectSections(all bool, table, fig int, pairing, failures, summary, ablations bool) []string {
	want := map[string]bool{
		"table" + strconv.Itoa(table): table != 0,
		"figure" + strconv.Itoa(fig):  fig != 0,
		"pairing":                     pairing,
		"failures":                    failures,
		"summary":                     summary,
	}
	var out []string
	for _, name := range experiments.SectionNames() {
		if all || want[name] || (ablations && strings.HasPrefix(name, "ablation_")) {
			out = append(out, name)
		}
	}
	return out
}

// run regenerates the selected sections to w and writes their
// measurements to o.jsonPath unless it is empty.
func run(w io.Writer, o *options) error {
	res, err := experiments.Evaluate(w, o.cfg, o.sections...)
	if err != nil {
		return err
	}
	if o.jsonPath == "" {
		return nil
	}
	if err := res.WriteFile(o.jsonPath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fluxbench: wrote %s (%d sections)\n", o.jsonPath, len(res.Sections))
	return nil
}
