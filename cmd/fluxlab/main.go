// Command fluxlab runs declarative Flux experiments: a spec (YAML)
// names a scenario, seed, sweep axes, and success criteria; the
// runner executes it and emits a deterministic report — per-cell p50/p99
// stage timings and byte counters, a calibration score against the
// paper's published numbers, a counterfactual policy analysis, and the
// strong-signal validation battery (≥30 named invariants, each reported
// individually).
//
// Usage:
//
//	fluxlab run lab/specs/smoke.yaml      # run a spec, print the report
//	fluxlab run -out report.json spec     # also write the report JSON
//	fluxlab signals                       # list the signal catalog
//
// The report on stdout is deterministic: identical (spec, seed) produce
// byte-identical output at any -workers width. Progress lines go to
// stderr. Exit status is non-zero when any signal (including the
// calibration MAPE/Pearson gates) fails. The smoke spec's report JSON
// is committed as BENCH_lab.json, which `go test ./internal/lab`
// compares byte for byte (`-update` rewrites it).
package main

import (
	"flag"
	"fmt"
	"os"

	"flux/internal/atomicio"
	"flux/internal/lab"
	"flux/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluxlab:", err)
		os.Exit(1)
	}
}

// errFailed marks a completed run whose verdict is failure; main exits
// non-zero without the usage hint.
type errFailed struct{ msg string }

func (e errFailed) Error() string { return e.msg }

func usage(w *os.File) {
	fmt.Fprintln(w, `usage:
  fluxlab run [-workers N] [-out FILE] [-q] [-cpuprofile FILE] [-memprofile FILE] SPEC
  fluxlab signals`)
}

func run(args []string) error {
	if len(args) == 0 {
		usage(os.Stderr)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:])
	case "signals":
		return signalsCmd()
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return nil
	default:
		usage(os.Stderr)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("fluxlab run", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "execution width (0 = one per CPU); never changes report bytes")
	out := fs.String("out", "", "write the report JSON here")
	quiet := fs.Bool("q", false, "suppress progress lines on stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile here")
	memProfile := fs.String("memprofile", "", "write a heap profile here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		usage(os.Stderr)
		return fmt.Errorf("run: want exactly one spec path, got %d args", fs.NArg())
	}
	spec, err := lab.LoadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer prof.Stop()
	runner := &lab.Runner{Spec: spec, Workers: *workers}
	if !*quiet {
		runner.Progress = os.Stderr
	}
	rep, err := runner.Run()
	if err != nil {
		return err
	}
	rep.Render(os.Stdout)
	if *out != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := atomicio.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if rep.Failed() {
		return errFailed{fmt.Sprintf("run: %d of %d signals failed", rep.SignalsFailed, len(rep.Signals))}
	}
	return nil
}

func signalsCmd() error {
	for _, s := range lab.SignalCatalog() {
		fmt.Printf("%-36s %s\n", s.Name, s.Desc)
	}
	return nil
}
