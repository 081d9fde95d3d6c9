// Command fluxvet is the Flux replay-safety static analyzer. It runs the
// spec and src layers of checks, plus the logs layer when given -logs
// (DESIGN.md §5f):
//
//	spec  — decorator-spec analysis over the compiled AIDL interfaces the
//	        services package ships: dead @drop targets, drop cycles that
//	        are not pair annihilations, lossy @if guard types, oneway
//	        methods routed through reply-dependent @replayproxy proxies,
//	        and state-mutating methods that carry no @record. Intentional
//	        deviations are waived by vet.DefaultSpecWaivers, and a waiver
//	        that stops matching surfaces as a stale-waiver finding.
//	logs  — linting of a persisted Selective Record log (-logs) against
//	        the same specs: prune/spec drift, unknown methods, sequence
//	        disorder, and (with -image) Binder handles absent from the
//	        CRIA image's handle table.
//	src   — the pass driver over the Go source tree (-src): named
//	        interprocedural analyses (DESIGN.md §5k) run one after another
//	        over a package graph loaded and type-checked once. The checks
//	        are wallclock and determinism-taint (wall-clock and
//	        unseeded-rand nondeterminism, propagated through the call
//	        graph via per-package facts), maprange (map-iteration order
//	        leaks), lock-order (AB/BA mutex acquisition conflicts),
//	        durability (discarded Write/Sync/Close errors and tmp+rename
//	        outside atomicio), and wire-drift (magic/header/cap/faults.Site
//	        drift across the codec packages). //fluxvet:allow comments
//	        suppress intentional sites with a reason; stale or misspelled
//	        directives become findings themselves.
//
// Usage:
//
//	fluxvet                                 # spec and src layers over the repo
//	fluxvet -logs run.flxg                  # + lint a persisted record log
//	fluxvet -logs run.flxg -image app.cria  # + replay-hazard handle checks
//	fluxvet -src /path/to/repo              # explicit repo root for src layer
//
// Findings print one per line as file:line:col: severity: [check] message.
// Exit status is 1 when any finding is reported, 2 on a bad invocation or
// operational error.
package main

import (
	"flag"
	"fmt"
	"os"

	"flux/internal/binder"
	"flux/internal/cria"
	"flux/internal/replay"
	"flux/internal/services"
	"flux/internal/vet"
)

func main() {
	var (
		logsPath   = flag.String("logs", "", "persisted record log (.flxg) to lint as well")
		imagePath  = flag.String("image", "", "CRIA image whose handle table gates replay-hazard checks (requires -logs)")
		srcRoot    = flag.String("src", ".", "repository root for the src layer")
		fullRecord = flag.Bool("fullrecord", false, "log was produced by the full-record ablation: skip unrecorded-entry checks")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, *logsPath); err != nil {
		fmt.Fprintln(os.Stderr, "fluxvet:", err)
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fluxvet:", err)
		os.Exit(2)
	}

	findings := runSpec()
	if *logsPath != "" {
		fs, err := runLogs(*logsPath, *imagePath, *fullRecord)
		if err != nil {
			fail(err)
		}
		findings = append(findings, fs...)
	}
	fs, err := vet.RunSource(vet.DefaultSourceConfig(*srcRoot))
	if err != nil {
		fail(err)
	}
	findings = append(findings, fs...)

	vet.Sort(findings)
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fluxvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// validateFlags checks the flag combination (set is populated by
// flag.Visit) before anything runs: -image and -fullrecord only shape the
// logs layer, so without -logs they would silently do nothing.
func validateFlags(set map[string]bool, logsPath string) error {
	if logsPath != "" {
		return nil
	}
	for _, name := range []string{"image", "fullrecord"} {
		if set[name] {
			return fmt.Errorf("-%s only applies with -logs", name)
		}
	}
	return nil
}

// runSpec analyzes the shipped decorator specs with the shipped waiver
// policy, resolving @replayproxy paths against the live replay engine's
// registry.
func runSpec() []vet.Finding {
	eng := replay.NewEngine()
	cfg := vet.SpecConfig{Proxies: func(path string) vet.ProxyInfo {
		registered, needsReply := eng.ProxyInfo(path)
		return vet.ProxyInfo{Registered: registered, NeedsReply: needsReply}
	}}
	var specs []vet.SpecSource
	for _, s := range services.AIDLSpecs() {
		specs = append(specs, vet.SpecSource{Service: s.Service, Itf: s.Itf})
	}
	return vet.Apply(vet.AnalyzeSpecs(specs, cfg), vet.DefaultSpecWaivers())
}

// runLogs lints a persisted record log, optionally against a CRIA image's
// handle table. Loading goes through vet.LintLogFile, so a log failing
// cryptographic verification surfaces as a log-integrity finding rather
// than a load error.
func runLogs(logsPath, imagePath string, fullRecord bool) ([]vet.Finding, error) {
	opts := vet.LogLintOptions{FullRecord: fullRecord}
	if imagePath != "" {
		data, err := os.ReadFile(imagePath)
		if err != nil {
			return nil, fmt.Errorf("loading CRIA image: %w", err)
		}
		img, err := cria.Unmarshal(data)
		if err != nil {
			return nil, fmt.Errorf("parsing CRIA image: %w", err)
		}
		opts.Handles = make(map[binder.Handle]bool, len(img.Handles))
		for _, h := range img.Handles {
			opts.Handles[h.Handle] = true
		}
	}
	fs, err := vet.LintLogFile(logsPath, services.InterfacesByDescriptor(), opts)
	if err != nil {
		return nil, fmt.Errorf("loading record log: %w", err)
	}
	return fs, nil
}
