package vet

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/record"
)

// Layer 2 — record-log linting.
//
// Given a persisted Selective Record log and the decorator specs, these
// checks detect logs that have drifted from the rules that supposedly
// pruned them, and logs that cannot replay against a CRIA image:
//
//	log-unknown     an entry naming an interface or method no spec
//	                declares, or whose transaction code disagrees with
//	                the spec's dispatch table.
//	unrecorded-entry  an entry for a method carrying no @record (the
//	                recorder should never have appended it). Skipped when
//	                Options.FullRecord is set (ablation logs).
//	prune-drift     an entry the specs say a later surviving entry should
//	                have pruned, or a surviving entry the rules would have
//	                suppressed outright — the persisted log and the specs
//	                disagree about drop semantics (checked against the
//	                flat-scan reference model).
//	replay-hazard   an entry issued on a Binder handle absent from the
//	                CRIA image's handle table, or whose request parcel
//	                embeds such a handle: replay would transact into a
//	                hole. Only checked when Options.Handles is provided.
//	log-order       per-app sequence numbers that are not strictly
//	                increasing; replay order would not match record order.
//	log-integrity   the on-disk file is not a seglog stream or fails
//	                cryptographic verification — a CRC, hash-chain link,
//	                segment Merkle root, or anchor does not recompute.
//	                Only LintLogFile emits this check;
//	                an integrity error refuses to lint the contents at
//	                all, since a forged log linting clean proves nothing.

// LogLintOptions parameterizes LintLog.
type LogLintOptions struct {
	// FullRecord disables the unrecorded-entry check, for logs produced
	// by the full-record ablation mode.
	FullRecord bool
	// Handles, when non-nil, is the CRIA binder table: the set of handle
	// ids the image restores. Entries transacting on other handles are
	// replay hazards.
	Handles map[binder.Handle]bool
}

// LintLogFile loads a persisted record log with full cryptographic
// verification and lints it. A file that fails verification yields a
// single log-integrity error finding and its contents are not linted.
// The returned error is reserved for I/O problems (missing file).
func LintLogFile(path string, specs map[string]*aidl.Interface, opts LogLintOptions) ([]Finding, error) {
	log, err := record.LoadFile(path)
	var pathErr *fs.PathError
	if errors.As(err, &pathErr) {
		return nil, err
	}
	if err != nil {
		return []Finding{{
			Check:    "log-integrity",
			Severity: Error,
			File:     path,
			Message:  fmt.Sprintf("log fails cryptographic verification: %v; refusing to lint a log that may not be what was recorded", err),
		}}, nil
	}
	return LintLog(log, specs, opts), nil
}

// LintLog lints every app slice of a record log against the specs.
// Specs are keyed by interface descriptor.
func LintLog(log *record.Log, specs map[string]*aidl.Interface, opts LogLintOptions) []Finding {
	var out []Finding
	for _, app := range log.Apps() {
		out = append(out, LintEntries(app, log.AppEntries(app), specs, opts)...)
	}
	Sort(out)
	return out
}

// LintEntries lints one app's entry slice (already in append order).
func LintEntries(app string, entries []*record.Entry, specs map[string]*aidl.Interface, opts LogLintOptions) []Finding {
	var out []Finding
	file := "log:" + app
	add := func(check string, e *record.Entry, format string, args ...any) {
		out = append(out, Finding{
			Check:     check,
			Severity:  Error,
			File:      file,
			Line:      int(e.Seq),
			Interface: e.Interface,
			Method:    e.Method,
			Message:   fmt.Sprintf(format, args...),
		})
	}

	// Shape checks first: order, spec resolution, handle hazards.
	sorted := append([]*record.Entry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	var lastSeq uint64
	for i, e := range sorted {
		if i > 0 && e.Seq <= lastSeq {
			add("log-order", e, "sequence %d not strictly increasing (previous %d); replay order would not match record order", e.Seq, lastSeq)
		}
		lastSeq = e.Seq

		itf, ok := specs[e.Interface]
		if !ok {
			add("log-unknown", e, "entry names interface %s, which no spec declares", e.Interface)
			continue
		}
		m := itf.Method(e.Method)
		if m == nil {
			add("log-unknown", e, "interface %s has no method %s", e.Interface, e.Method)
			continue
		}
		if m.Code != e.Code {
			add("log-unknown", e, "entry code %d disagrees with the spec's transaction code %d for %s.%s",
				e.Code, m.Code, e.Interface, e.Method)
		}
		if !opts.FullRecord && m.Record == nil {
			add("unrecorded-entry", e, "method carries no @record; the recorder should never have appended it")
		}

		if opts.Handles != nil {
			if !opts.Handles[e.Handle] {
				add("replay-hazard", e, "entry transacts on handle %d, absent from the CRIA binder table", e.Handle)
			}
			if data, err := binder.UnmarshalParcel(e.Data); err == nil {
				for _, h := range data.Handles() {
					if !opts.Handles[h] {
						add("replay-hazard", e, "request parcel embeds handle %d, absent from the CRIA binder table", h)
					}
				}
			}
		}
	}

	// Prune/spec drift: feed the claimed survivors through the reference
	// model in sequence order. If entry E's rule would have pruned an
	// earlier survivor P (or suppressed E itself), the log and the specs
	// disagree.
	model := newRefModel(specs)
	var prior []*record.Entry
	for _, e := range sorted {
		if _, ok := specs[e.Interface]; !ok {
			continue
		}
		pruned, suppressed := model.predict(e, prior)
		for _, idx := range pruned {
			p := prior[idx]
			add("prune-drift", p,
				"entry should have been pruned by seq %d (%s.%s): the @drop/@if rules and the persisted log disagree",
				e.Seq, e.Interface, e.Method)
		}
		if suppressed {
			add("prune-drift", e,
				"entry should have been suppressed by its own @drop(this) annihilation rule yet survives in the log")
		}
		prior = append(prior, e)
	}

	Sort(out)
	return out
}
