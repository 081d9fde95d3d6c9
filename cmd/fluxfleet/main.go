// Command fluxfleet drives the fleet-scale discrete-event migration
// engine: N devices and M concurrent migrations on one shared virtual
// clock, with pluggable placement policies and per-AP admission
// control (internal/fleet).
//
// Usage:
//
//	fluxfleet -spec fleet/specs/smoke.yaml              # run, report on stdout
//	fluxfleet -spec ... -json BENCH_fleet.json          # also write the report file
//	fluxfleet -spec ... -check BENCH_fleet.json         # byte-compare against a committed baseline
//	fluxfleet -spec ... -workers 4                      # profiling pool width (report bytes never change)
//	fluxfleet -spec ... -v                              # progress + wall-clock events/sec on stderr
//	fluxfleet -spec ... -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The report on stdout is deterministic: same spec + seed produce
// byte-identical JSON at any -workers width. Wall-clock measurements
// (events/sec) go to stderr only — they never contaminate the report.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flux/internal/fleet"
	"flux/internal/profiling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fluxfleet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		specPath   = flag.String("spec", "", "fleet spec file (YAML subset)")
		workers    = flag.Int("workers", 0, "profiling pool width (0 = one per CPU); never changes report bytes")
		jsonPath   = flag.String("json", "", "write the report JSON here")
		checkPath  = flag.String("check", "", "compare the report byte for byte with this committed baseline")
		verbose    = flag.Bool("v", false, "progress and wall-clock throughput on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile here")
		memProfile = flag.String("memprofile", "", "write a heap profile here")
	)
	flag.Parse()
	if *specPath == "" {
		flag.Usage()
		return fmt.Errorf("missing -spec")
	}
	spec, err := fleet.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer prof.Stop()

	if *verbose {
		fmt.Fprintf(os.Stderr, "fluxfleet: %s: profiling migration classes (workers=%d)...\n", spec.Name, *workers)
	}
	buildStart := time.Now()
	sim, err := fleet.NewSim(spec, *workers)
	if err != nil {
		return err
	}
	buildWall := time.Since(buildStart)
	runStart := time.Now()
	sim.Run()
	runWall := time.Since(runStart)
	rep := sim.Report()
	if *verbose {
		eps := float64(rep.Events) / runWall.Seconds()
		fmt.Fprintf(os.Stderr, "fluxfleet: build %.0fms, run %.0fms: %d events (%.2fM events/sec), %d/%d migrations completed\n",
			float64(buildWall.Microseconds())/1000, float64(runWall.Microseconds())/1000,
			rep.Events, eps/1e6, rep.Completed, rep.Migrations)
	}

	data, err := rep.Render()
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			return err
		}
	}
	if *checkPath != "" {
		if err := rep.CheckFile(*checkPath); err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "fluxfleet: report matches baseline %s\n", *checkPath)
		}
	}
	return nil
}
