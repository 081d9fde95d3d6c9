package lab

import (
	"fmt"
	"sort"
	"strings"

	"flux/internal/experiments"
	"flux/internal/fleet"
	"flux/internal/migration"
)

// CellStats is the per-sweep-cell aggregate a report stores: p50/p99
// stage timings and byte counters over the cell's migrations. Every
// field is a function of virtual time, so reports are byte-identical
// for identical (spec, seed) at any worker width.
type CellStats struct {
	// ID is the canonical cell label, e.g.
	// "scenario=matrix pipelined=true rep=1 workers=4".
	ID string `json:"id"`
	// Params lists the cell's parameters as sorted key=value pairs.
	Params []string `json:"params"`
	// Migrations is the number of migrations the cell ran (including
	// rolled-back ones under faults).
	Migrations int `json:"migrations"`
	// RolledBack counts clean rollbacks (fault cells only).
	RolledBack int `json:"rolled_back,omitempty"`
	// StageP50S / StageP99S are per-stage virtual seconds over the
	// cell's completed migrations, in Figure 13 stage order.
	StageP50S [5]float64 `json:"stage_p50_s"`
	StageP99S [5]float64 `json:"stage_p99_s"`
	// TotalP50S / TotalP99S aggregate whole-migration time.
	TotalP50S float64 `json:"total_p50_s"`
	TotalP99S float64 `json:"total_p99_s"`
	// UserP50S / UserP99S aggregate user-perceived time.
	UserP50S float64 `json:"user_p50_s"`
	UserP99S float64 `json:"user_p99_s"`
	// WireBytes totals TransferredBytes across the cell; WireP50B /
	// WireP99B are per-migration percentiles.
	WireBytes int64 `json:"wire_bytes"`
	WireP50B  int64 `json:"wire_p50_b"`
	WireP99B  int64 `json:"wire_p99_b"`
	// ImageBytes / CompressedBytes total the checkpoint sizes.
	ImageBytes      int64 `json:"image_bytes"`
	CompressedBytes int64 `json:"compressed_bytes"`
	// Retries / RetransmitBytes total fault recovery work (fault cells).
	Retries         int   `json:"retries,omitempty"`
	RetransmitBytes int64 `json:"retransmit_bytes,omitempty"`
	// Cache* total the delta-migration verdicts (commuter cells).
	CacheHits            int   `json:"cache_hits,omitempty"`
	CacheMisses          int   `json:"cache_misses,omitempty"`
	CacheRollingHits     int   `json:"cache_rolling_hits,omitempty"`
	CacheBytesNotShipped int64 `json:"cache_bytes_not_shipped,omitempty"`
}

// cellID canonicalizes a parameter set into the cell's ID and Params:
// sorted key=value tokens, space-joined.
func cellID(params map[string]string) (string, []string) {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tokens := make([]string, 0, len(keys))
	for _, k := range keys {
		tokens = append(tokens, k+"="+params[k])
	}
	return strings.Join(tokens, " "), tokens
}

// percentile returns the nearest-rank percentile (p in [0,100]) of xs.
// xs is copied and sorted; deterministic for any input order.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func percentileBytes(xs []int64, p float64) int64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return int64(percentile(fs, p))
}

// statsFromReports aggregates migration reports into a CellStats.
// Reports must already exclude rolled-back cells; rolledBack counts them.
func statsFromReports(params map[string]string, reports []*migration.Report, rolledBack int) CellStats {
	id, tokens := cellID(params)
	cs := CellStats{
		ID:         id,
		Params:     tokens,
		Migrations: len(reports) + rolledBack,
		RolledBack: rolledBack,
	}
	var stage [5][]float64
	var totals, users []float64
	var wires []int64
	for _, rep := range reports {
		for s := 0; s < 5; s++ {
			stage[s] = append(stage[s], rep.Timings[migration.Stage(s)].Seconds())
		}
		totals = append(totals, rep.Timings.Total().Seconds())
		users = append(users, rep.Timings.UserPerceived().Seconds())
		wires = append(wires, rep.TransferredBytes)
		cs.WireBytes += rep.TransferredBytes
		cs.ImageBytes += rep.ImageBytes
		cs.CompressedBytes += rep.CompressedImageBytes
		cs.Retries += rep.Retries
		cs.RetransmitBytes += rep.RetransmitBytes
		cs.CacheHits += rep.CacheHits
		cs.CacheMisses += rep.CacheMisses
		cs.CacheRollingHits += rep.CacheRollingHits
		cs.CacheBytesNotShipped += rep.CacheBytesNotShipped
	}
	for s := 0; s < 5; s++ {
		cs.StageP50S[s] = percentile(stage[s], 50)
		cs.StageP99S[s] = percentile(stage[s], 99)
	}
	cs.TotalP50S = percentile(totals, 50)
	cs.TotalP99S = percentile(totals, 99)
	cs.UserP50S = percentile(users, 50)
	cs.UserP99S = percentile(users, 99)
	cs.WireP50B = percentileBytes(wires, 50)
	cs.WireP99B = percentileBytes(wires, 99)
	return cs
}

// statsFromCells aggregates matrix cells into a CellStats, counting
// clean rollbacks (fault matrices only) apart from completed reports.
func statsFromCells(params map[string]string, cells []experiments.Cell) CellStats {
	var reports []*migration.Report
	rolledBack := 0
	for _, c := range cells {
		if c.RolledBack() {
			rolledBack++
			continue
		}
		reports = append(reports, c.Report)
	}
	return statsFromReports(params, reports, rolledBack)
}

// statsFromFleet aggregates one fleet run into a CellStats. Fleet
// migrations replay measured stage graphs under contention, so the
// whole-migration and user-perceived aggregates are populated from the
// per-migration records; per-stage percentiles stay zero (stage time is
// a property of the profiled class, not the fleet cell).
func statsFromFleet(params map[string]string, res *fleet.Result) CellStats {
	id, tokens := cellID(params)
	cs := CellStats{
		ID:         id,
		Params:     tokens,
		Migrations: res.Report.Migrations,
		WireBytes:  res.Report.WireBytes,
	}
	var totals, users []float64
	for _, m := range res.Migs {
		if m.Superseded {
			continue
		}
		totals = append(totals, float64(m.DoneNS-m.AdmitNS)/1e9)
		users = append(users, float64(m.UserNS)/1e9)
	}
	cs.TotalP50S = percentile(totals, 50)
	cs.TotalP99S = percentile(totals, 99)
	cs.UserP50S = percentile(users, 50)
	cs.UserP99S = percentile(users, 99)
	return cs
}

// commuterReportsOf flattens commuter runs into hop reports.
func commuterReportsOf(runs []*experiments.CommuterRun) []*migration.Report {
	var out []*migration.Report
	for _, r := range runs {
		for _, h := range r.Hops {
			out = append(out, h.Report)
		}
	}
	return out
}

// fmtFloat renders sweep-axis floats canonically for cell IDs.
func fmtFloat(f float64) string { return fmt.Sprintf("%g", f) }
