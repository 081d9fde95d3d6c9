package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"flux/internal/atomicio"
	"flux/internal/migration"
)

// This file adds machine-readable output to the evaluation driver. Each
// regenerated table/figure is recorded as a SectionResult pairing the
// wall-clock cost of regenerating the artifact with the virtual-time
// metrics the artifact reports (average migration seconds, transfer
// share, wire bytes, ...). cmd/fluxbench serializes a Results into
// BENCH_results.json next to its text output, seeding the repo's
// performance trajectory: successive PRs can diff wall-clock numbers per
// figure instead of eyeballing text tables.

// SectionResult is the measurement of one regenerated evaluation section.
type SectionResult struct {
	// Name identifies the section ("table2", "figure12", "pairing", ...).
	Name string `json:"name"`
	// WallClockMS is how long regenerating the section took in real time.
	WallClockMS float64 `json:"wall_clock_ms"`
	// Metrics carries the section's paper-comparable virtual-time
	// quantities, keyed by a stable metric name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Results is the machine-readable counterpart of the text evaluation.
type Results struct {
	// Schema versions the JSON layout.
	Schema int `json:"schema"`
	// GeneratedAt is the wall-clock generation time (RFC 3339).
	GeneratedAt string `json:"generated_at"`
	// MatrixWorkers is the worker-pool size the migration matrix ran on.
	MatrixWorkers int `json:"matrix_workers"`
	// Sections lists per-figure measurements in generation order.
	Sections []SectionResult `json:"sections"`
}

// ResultsSchemaVersion is the current BENCH_results.json layout version.
const ResultsSchemaVersion = 1

// NewResults returns an empty Results for the given matrix worker count.
func NewResults(workers int) *Results {
	return &Results{
		Schema: ResultsSchemaVersion,
		//fluxvet:allow wallclock — report provenance timestamp; never compared against virtual time
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		MatrixWorkers: workers,
	}
}

// Time runs fn, appends a SectionResult with its wall-clock cost, and
// merges the metrics fn returned. A nil receiver is allowed and simply
// runs fn, so callers can thread an optional collector through.
func (r *Results) Time(name string, fn func() (map[string]float64, error)) error {
	//fluxvet:allow wallclock — WallClockMS deliberately reports real harness cost alongside virtual timings
	start := time.Now()
	metrics, err := fn()
	if r == nil {
		return err
	}
	r.Sections = append(r.Sections, SectionResult{
		Name: name,
		//fluxvet:allow wallclock — pairs with the wall-clock start above
		WallClockMS: float64(time.Since(start).Microseconds()) / 1000,
		Metrics:     metrics,
	})
	return err
}

// WriteFile serializes the results as indented JSON at path, atomically.
func (r *Results) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: marshaling results: %w", err)
	}
	data = append(data, '\n')
	if err := atomicio.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("experiments: writing results: %w", err)
	}
	return nil
}

// MatrixMetrics aggregates the evaluation matrix into its headline
// virtual-time metrics — the quantities Figures 12–15 and the summary
// report.
func MatrixMetrics(cells []Cell) map[string]float64 {
	if len(cells) == 0 {
		return nil
	}
	var total, user, exclXfer, xferFrac, wireMB float64
	var maxWire int64
	for _, c := range cells {
		total += c.Report.Timings.Total().Seconds()
		user += c.Report.Timings.UserPerceived().Seconds()
		exclXfer += c.Report.Timings.ExcludingTransfer().Seconds()
		xferFrac += float64(c.Report.Timings[migration.StageTransfer]) / float64(c.Report.Timings.Total())
		wireMB += mb(c.Report.TransferredBytes)
		if c.Report.TransferredBytes > maxWire {
			maxWire = c.Report.TransferredBytes
		}
	}
	n := float64(len(cells))
	return map[string]float64{
		"migrations":              n,
		"avg_virtual_migration_s": total / n,
		"avg_user_perceived_s":    user / n,
		"avg_excl_transfer_s":     exclXfer / n,
		"avg_transfer_share_pct":  100 * xferFrac / n,
		"avg_transferred_mb":      wireMB / n,
		"max_transferred_mb":      mb(maxWire),
	}
}

// CommuterMetrics aggregates one commuter run per pair into the
// headline delta-migration metrics, the commuter section of
// BENCH_commuter.json: hop-1 and steady-state wire bytes averaged over
// pairs, the steady state as a share of hop 1, the warm-hop cache hit
// ratio, and the bytes the caches kept off the wire.
func CommuterMetrics(runs []*CommuterRun, spec CommuterSpec) map[string]float64 {
	var hop1, steady, hitRatio, notShipped float64
	for _, r := range runs {
		hop1 += mb(r.Hop1Bytes())
		steady += mb(r.SteadyAvgBytes())
		hitRatio += r.HitRatio()
		notShipped += mb(r.NotShippedBytes())
	}
	n := float64(len(runs))
	return map[string]float64{
		"round_trips":            float64(spec.RoundTrips),
		"dirty_rate_pct":         100 * spec.DirtyRate,
		"hop1_avg_mb":            hop1 / n,
		"hop2plus_avg_mb":        steady / n,
		"hop2plus_over_hop1_pct": 100 * steady / hop1,
		"hit_ratio_pct":          100 * hitRatio / n,
		"not_shipped_mb":         notShipped / n,
	}
}
