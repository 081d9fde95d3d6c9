package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"

	"flux/internal/atomicio"
)

// ReportSchemaVersion versions the fleet report JSON layout.
const ReportSchemaVersion = 1

// ClassStats summarizes one SLO class's completed migrations.
type ClassStats struct {
	Name      string `json:"name"`
	Completed int    `json:"completed"`
	// User-perceived migration latency: the window from checkpoint
	// hand-off to hop completion, summed across the chain's hops.
	P50UserSec float64 `json:"p50_user_s"`
	P99UserSec float64 `json:"p99_user_s"`
	// Admission wait: arrival to token grant.
	P50WaitSec float64 `json:"p50_wait_s"`
	P99WaitSec float64 `json:"p99_wait_s"`
	// SLOAttainedPct is the share of completions whose user-perceived
	// latency met the class SLO.
	SLOAttainedPct float64 `json:"slo_attained_pct"`
}

// Report is the deterministic output of one fleet run. It carries only
// aggregates — every field is a pure function of (spec, seed), so the
// serialized report is byte-identical at any profiling worker width.
type Report struct {
	Schema     int    `json:"schema"`
	Name       string `json:"name"`
	Seed       int64  `json:"seed"`
	SpecHash   string `json:"spec_hash"`
	Devices    int    `json:"devices"`
	APs        int    `json:"aps"`
	Migrations int    `json:"migrations"`
	Completed  int    `json:"completed"`
	Superseded int    `json:"superseded"`
	// Events is the discrete-event count the run processed.
	Events uint64 `json:"events"`
	// HorizonSec is the virtual time at which the last event fired.
	HorizonSec float64 `json:"horizon_s"`
	// WireBytes / WireMB total the bytes shipped across all hops.
	WireBytes int64   `json:"wire_bytes"`
	WireMB    float64 `json:"wire_mb"`
	// FairnessJain is Jain's index over per-user mean user-perceived
	// latency (1 = perfectly fair).
	FairnessJain float64      `json:"fairness_jain"`
	Classes      []ClassStats `json:"classes"`
}

// percentile returns the nearest-rank percentile of sorted ns samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sec(ns int64) float64 { return float64(ns) / 1e9 }

// Report aggregates the finished Sim into a Report. Scratch slices are
// allocated here — reporting is off the hot path.
func (s *Sim) Report() *Report {
	rep := &Report{
		Schema:     ReportSchemaVersion,
		Name:       s.spec.Name,
		Seed:       s.spec.Seed,
		SpecHash:   s.spec.Hash(),
		Devices:    int(s.nDevices),
		APs:        int(s.nAPs),
		Migrations: len(s.migs),
		Completed:  s.completed,
		Superseded: s.superseded,
		Events:     s.events,
		HorizonSec: sec(s.horizonNS),
		WireBytes:  s.wireBytes,
		WireMB:     float64(s.wireBytes) / (1 << 20),
	}

	// Per-class latency distributions, each sized to the class's
	// completion count up front.
	done := make([]int, len(s.spec.Classes))
	for i := range s.migs {
		if m := &s.migs[i]; m.state == stateDone {
			done[m.class]++
		}
	}
	userNS := make([][]int64, len(s.spec.Classes))
	waitNS := make([][]int64, len(s.spec.Classes))
	for ci, n := range done {
		userNS[ci] = make([]int64, 0, n)
		waitNS[ci] = make([]int64, 0, n)
	}
	met := make([]int, len(s.spec.Classes))
	// Per-user totals for the fairness index.
	uSum := make([]float64, s.spec.Users)
	uCnt := make([]int, s.spec.Users)
	for i := range s.migs {
		m := &s.migs[i]
		if m.state != stateDone {
			continue
		}
		userNS[m.class] = append(userNS[m.class], m.userNS)
		waitNS[m.class] = append(waitNS[m.class], m.waitNS)
		if m.userNS <= s.classSLO[m.class] {
			met[m.class]++
		}
		uSum[m.user] += float64(m.userNS)
		uCnt[m.user]++
	}
	for ci := range s.spec.Classes {
		slices.Sort(userNS[ci])
		slices.Sort(waitNS[ci])
		cs := ClassStats{
			Name:       s.spec.Classes[ci].Name,
			Completed:  len(userNS[ci]),
			P50UserSec: sec(percentile(userNS[ci], 50)),
			P99UserSec: sec(percentile(userNS[ci], 99)),
			P50WaitSec: sec(percentile(waitNS[ci], 50)),
			P99WaitSec: sec(percentile(waitNS[ci], 99)),
		}
		if cs.Completed > 0 {
			cs.SLOAttainedPct = 100 * float64(met[ci]) / float64(cs.Completed)
		}
		rep.Classes = append(rep.Classes, cs)
	}

	// Jain's fairness index over per-user mean user-perceived latency:
	// (Σx)² / (n·Σx²), over users with at least one completion.
	var sum, sumSq float64
	n := 0
	for u := range uSum {
		if uCnt[u] == 0 {
			continue
		}
		mean := uSum[u] / float64(uCnt[u])
		sum += mean
		sumSq += mean * mean
		n++
	}
	if n > 0 && sumSq > 0 {
		rep.FairnessJain = sum * sum / (float64(n) * sumSq)
	}
	return rep
}

// Render serializes the report as stable indented JSON (trailing
// newline included) — the byte stream the determinism guarantees are
// stated over.
func (r *Report) Render() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("fleet: marshaling report: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteFile writes the rendered report atomically.
func (r *Report) WriteFile(path string) error {
	data, err := r.Render()
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("fleet: writing report: %w", err)
	}
	return nil
}

// CheckFile compares the rendered report byte for byte with a committed
// baseline file. Every field is a deterministic function of (spec,
// seed), so any difference, a stale extra field in the baseline
// included, is a real change.
func (r *Report) CheckFile(path string) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fleet: reading baseline: %w", err)
	}
	fresh, err := r.Render()
	if err != nil {
		return err
	}
	if !bytes.Equal(fresh, want) {
		return fmt.Errorf("fleet: report differs from baseline %s (spec %s seed %d): regenerate the baseline if the change is intended", path, r.Name, r.Seed)
	}
	return nil
}
