// Package vet implements fluxvet, Flux's replay-safety static analyzer.
//
// The paper's correctness argument rests entirely on the AIDL decorator
// specs being right: a missing @record, a too-eager @drop, or an @if guard
// over an incomparable argument silently corrupts replayed service state on
// the guest device. BinderCracker-style interface-contract bugs survive
// into production precisely because nothing cross-checks the contract
// against the code that honors it. fluxvet closes that gap with three
// analysis layers:
//
//	Layer 1 (spec.go)    — static analysis over compiled aidl.Interfaces:
//	                       dead drops, drop cycles, self-shadowing, guard
//	                       type errors, oneway/reply conflicts, unresolved
//	                       replay proxies, and @record coverage.
//	Layer 2 (loglint.go) — linting of persisted record logs against the
//	                       specs: prune/spec drift via a flat-scan
//	                       reference model, replay-order handle hazards
//	                       against a CRIA binder table, and log-shape
//	                       invariants.
//	Layer 3 (driver.go)  — an interprocedural pass driver over the Go
//	                       source tree (stdlib-only go/analysis
//	                       analogue): the package graph is loaded and
//	                       type-checked once, topologically sorted, and
//	                       the passes run in turn, exchanging
//	                       per-package facts. Checks: wallclock,
//	                       determinism-taint, maprange, lock-order,
//	                       durability, wire-drift, plus stale-allow /
//	                       unknown-allow directive hygiene.
//
// Findings are positioned (AIDL line:col for layer 1, file:line:col for
// layer 3, app/seq for layer 2) and gate `make verify` and CI: any
// unwaived finding fails the build. Intentional deviations are recorded as
// Waivers with a reason; a waiver that stops matching anything becomes a
// finding itself, so the waiver list cannot rot.
package vet

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a finding. Both severities gate the build; the
// distinction is advisory (errors are spec/correctness violations,
// warnings are coverage and style hazards).
type Severity uint8

const (
	Error Severity = iota
	Warn
)

func (s Severity) String() string {
	if s == Warn {
		return "warn"
	}
	return "error"
}

// Finding is one analyzer diagnostic.
type Finding struct {
	// Check is the stable check identifier ("dead-drop", "guard-type",
	// "wallclock", ...). Waivers match on it.
	Check    string
	Severity Severity

	// File/Line/Col position the finding. For spec findings File is the
	// service name (e.g. "alarm") and Line/Col index into its AIDL
	// source; for source findings File is a Go file path; for log
	// findings File is "log:<app>" and Line is the entry sequence number.
	File string
	Line int
	Col  int

	// Interface and Method give the AIDL context when applicable.
	Interface string
	Method    string

	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	var b strings.Builder
	if f.File != "" {
		b.WriteString(f.File)
		if f.Line > 0 {
			fmt.Fprintf(&b, ":%d", f.Line)
			if f.Col > 0 {
				fmt.Fprintf(&b, ":%d", f.Col)
			}
		}
		b.WriteString(": ")
	}
	fmt.Fprintf(&b, "%s: [%s]", f.Severity, f.Check)
	if f.Interface != "" {
		b.WriteString(" ")
		b.WriteString(f.Interface)
		if f.Method != "" {
			b.WriteString(".")
			b.WriteString(f.Method)
		}
		b.WriteString(":")
	}
	b.WriteString(" ")
	b.WriteString(f.Message)
	return b.String()
}

// Sort orders findings deterministically: by file, position, check.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// Waiver suppresses findings of one check on one interface method. Method
// "*" matches every method of the interface. Every waiver must carry a
// Reason; Apply turns waivers that matched nothing into stale-waiver
// findings so the policy list tracks the specs.
type Waiver struct {
	Check     string
	Interface string
	Method    string
	Reason    string
}

func (w Waiver) matches(f Finding) bool {
	if w.Check != f.Check || w.Interface != f.Interface {
		return false
	}
	return w.Method == "*" || w.Method == f.Method
}

// Apply filters findings through the waiver list. Waived findings are
// removed; waivers that matched no finding are reported as stale-waiver
// warnings, keeping the policy honest as specs evolve.
func Apply(findings []Finding, waivers []Waiver) []Finding {
	used := make([]bool, len(waivers))
	var kept []Finding
	for _, f := range findings {
		waived := false
		for i, w := range waivers {
			if w.matches(f) {
				used[i] = true
				waived = true
			}
		}
		if !waived {
			kept = append(kept, f)
		}
	}
	for i, w := range waivers {
		if !used[i] {
			kept = append(kept, Finding{
				Check:     "stale-waiver",
				Severity:  Warn,
				Interface: w.Interface,
				Method:    w.Method,
				Message:   fmt.Sprintf("waiver for check %q no longer matches any finding; delete it (reason was: %s)", w.Check, w.Reason),
			})
		}
	}
	Sort(kept)
	return kept
}
