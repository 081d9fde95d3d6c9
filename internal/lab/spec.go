// Package lab is the hypothesis-driven experiment platform over the Flux
// simulation (DESIGN.md §5h). A declarative experiment spec — scenario,
// base seed, sweep axes, repetitions, success criteria — is executed by a
// Runner that fans sweeps across the deterministic evaluation machinery
// (the 64-migration matrix, the fault matrix, the commuter itinerary) and
// emits one Report holding three parts:
//
//   - per-cell p50/p99 stage timings and byte counters under the spec's
//     hash; the smoke spec's report is committed as BENCH_lab.json and
//     the tier-1 suite requires a fresh run to equal it byte for byte;
//   - a calibration report scoring the simulated stage timings and
//     transfer bytes against the checked-in paper reference (Figure 13
//     stage shares, Figure 15/Table 3 per-app transfer sizes, the §4
//     headline aggregates) by MAPE and Pearson correlation, failing the
//     run when a per-metric budget is exceeded;
//   - a strong-signal validation battery: dozens of named invariant
//     checks per run, each reported individually with evidence, reusing
//     the invariants PRs 1–6 previously asserted only inside tests.
//
// Everything the Runner reports is a function of virtual time and the
// spec's seed, so the same seed and spec produce a byte-identical lab
// report at any worker-pool width.
package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// SpecSchemaVersion versions the experiment-spec layout.
const SpecSchemaVersion = 1

// Scenario names the experiment family a spec drives.
const (
	ScenarioMatrix   = "matrix"   // the clean 64-migration evaluation matrix
	ScenarioFaults   = "faults"   // the matrix under injected wire faults
	ScenarioCommuter = "commuter" // K round trips with delta-migration caches
	ScenarioFleet    = "fleet"    // the discrete-event fleet simulator (internal/fleet)
)

// Sweep declares the axes a spec fans over. Only the axes meaningful for
// the spec's scenario may be set; Validate rejects the rest so a typo'd
// axis never silently no-ops.
type Sweep struct {
	// Workers sweeps the matrix worker-pool width (matrix scenario).
	// Results must be byte-identical across widths — sweeping it exists
	// to prove that, not to change answers.
	Workers []int `json:"workers,omitempty"`
	// Pipelined sweeps streamed vs stop-and-copy transfer (matrix and
	// commuter scenarios).
	Pipelined []bool `json:"pipelined,omitempty"`
	// FaultRates sweeps the per-chunk fault probability (faults scenario).
	FaultRates []float64 `json:"fault_rates,omitempty"`
	// DirtyFracs sweeps the between-hop dirty fraction (commuter).
	DirtyFracs []float64 `json:"dirty_fracs,omitempty"`
	// CacheBudgets sweeps the per-device chunk-store byte budget
	// (commuter); 0 is unbounded.
	CacheBudgets []int64 `json:"cache_budgets,omitempty"`
	// RoundTrips is K for the commuter scenario (not an axis: one value).
	RoundTrips int `json:"round_trips,omitempty"`
	// FleetDevices sweeps the fleet size — total device count — of the
	// fleet scenario. Each cell scales the default fleet workload to
	// that many devices.
	FleetDevices []int `json:"fleet_devices,omitempty"`
	// FleetMigrations is the migration count per fleet cell (not an
	// axis: one value; 0 scales with the device count).
	FleetMigrations int `json:"fleet_migrations,omitempty"`
}

// Criteria are the success thresholds the signal battery enforces.
// Zero values fall back to DefaultCriteria.
type Criteria struct {
	// MaxStageMAPEPct bounds the per-stage Figure 13 share MAPE.
	MaxStageMAPEPct float64 `json:"max_stage_mape_pct,omitempty"`
	// MaxBytesMAPEPct bounds the per-app transfer-byte MAPE.
	MaxBytesMAPEPct float64 `json:"max_bytes_mape_pct,omitempty"`
	// MinPearsonR is the floor for both calibration correlations.
	MinPearsonR float64 `json:"min_pearson_r,omitempty"`
	// MaxHeadlineMAPEPct bounds the error against the paper's §4
	// headline aggregates (7.88 s avg total, 1.35 s excl transfer, ...).
	// The simulation deliberately idealizes some host effects, so this
	// budget is looser than the per-figure ones.
	MaxHeadlineMAPEPct float64 `json:"max_headline_mape_pct,omitempty"`
	// MinRecoveryPct is the fault-matrix completion floor at the
	// headline fault rate.
	MinRecoveryPct float64 `json:"min_recovery_pct,omitempty"`
}

// DefaultCriteria returns the thresholds the shipped specs use.
func DefaultCriteria() Criteria {
	return Criteria{
		MaxStageMAPEPct:    5,
		MaxBytesMAPEPct:    5,
		MinPearsonR:        0.98,
		MaxHeadlineMAPEPct: 40,
		MinRecoveryPct:     95,
	}
}

// Spec is one declarative experiment: what to run, how wide to sweep,
// and what counts as success. Specs are plain data — YAML (the subset
// parseYAML accepts) or a Go literal — and hash canonically, so a
// report can prove which experiment produced it.
type Spec struct {
	// Schema versions the spec layout.
	Schema int `json:"schema"`
	// Name identifies the experiment ("smoke", "fault-sweep", ...).
	Name string `json:"name"`
	// Scenario picks the experiment family: matrix, faults, or commuter.
	Scenario string `json:"scenario"`
	// Seed is the base seed; per-cell seeds derive from it.
	Seed int64 `json:"seed"`
	// Repetitions re-runs every sweep cell; deterministic scenarios
	// repeat identically (the battery checks exactly that), fault cells
	// derive a fresh injector seed per repetition.
	Repetitions int `json:"repetitions"`
	// CounterfactualK bounds the per-cell regret table to the K worst
	// cells (BLIS --counterfactual-k).
	CounterfactualK int `json:"counterfactual_k,omitempty"`
	// Sweep declares the axes.
	Sweep Sweep `json:"sweep"`
	// Criteria are the success thresholds; zero fields use defaults.
	Criteria Criteria `json:"criteria"`
}

// withDefaults fills unset fields so the Runner never branches on zero
// values.
func (s Spec) withDefaults() Spec {
	if s.Schema == 0 {
		s.Schema = SpecSchemaVersion
	}
	if s.Repetitions < 1 {
		s.Repetitions = 1
	}
	if s.CounterfactualK < 1 {
		s.CounterfactualK = 5
	}
	if s.Sweep.RoundTrips < 1 {
		s.Sweep.RoundTrips = 2
	}
	def := DefaultCriteria()
	if s.Criteria.MaxStageMAPEPct <= 0 {
		s.Criteria.MaxStageMAPEPct = def.MaxStageMAPEPct
	}
	if s.Criteria.MaxBytesMAPEPct <= 0 {
		s.Criteria.MaxBytesMAPEPct = def.MaxBytesMAPEPct
	}
	if s.Criteria.MinPearsonR <= 0 {
		s.Criteria.MinPearsonR = def.MinPearsonR
	}
	if s.Criteria.MaxHeadlineMAPEPct <= 0 {
		s.Criteria.MaxHeadlineMAPEPct = def.MaxHeadlineMAPEPct
	}
	if s.Criteria.MinRecoveryPct <= 0 {
		s.Criteria.MinRecoveryPct = def.MinRecoveryPct
	}
	if len(s.Sweep.Workers) == 0 {
		s.Sweep.Workers = []int{0} // 0 = the runner's execution width
	}
	if len(s.Sweep.Pipelined) == 0 {
		s.Sweep.Pipelined = []bool{false}
	}
	if len(s.Sweep.FaultRates) == 0 && s.Scenario == ScenarioFaults {
		s.Sweep.FaultRates = []float64{0.15}
	}
	if len(s.Sweep.DirtyFracs) == 0 && s.Scenario == ScenarioCommuter {
		s.Sweep.DirtyFracs = []float64{0.10}
	}
	if len(s.Sweep.CacheBudgets) == 0 && s.Scenario == ScenarioCommuter {
		s.Sweep.CacheBudgets = []int64{0}
	}
	if len(s.Sweep.FleetDevices) == 0 && s.Scenario == ScenarioFleet {
		s.Sweep.FleetDevices = []int{48}
	}
	return s
}

// Validate rejects malformed specs with a message naming the offending
// field. Axes that do not apply to the scenario are errors, not no-ops.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("lab: spec needs a name")
	}
	if s.Schema != 0 && s.Schema != SpecSchemaVersion {
		return fmt.Errorf("lab: spec %s: unsupported schema %d (want %d)", s.Name, s.Schema, SpecSchemaVersion)
	}
	switch s.Scenario {
	case ScenarioMatrix:
		if len(s.Sweep.FaultRates) > 0 {
			return fmt.Errorf("lab: spec %s: sweep.fault_rates applies to the faults scenario only", s.Name)
		}
		if len(s.Sweep.DirtyFracs) > 0 || len(s.Sweep.CacheBudgets) > 0 {
			return fmt.Errorf("lab: spec %s: sweep.dirty_fracs/cache_budgets apply to the commuter scenario only", s.Name)
		}
	case ScenarioFaults:
		if len(s.Sweep.DirtyFracs) > 0 || len(s.Sweep.CacheBudgets) > 0 {
			return fmt.Errorf("lab: spec %s: sweep.dirty_fracs/cache_budgets apply to the commuter scenario only", s.Name)
		}
		if len(s.Sweep.Pipelined) > 1 || (len(s.Sweep.Pipelined) == 1 && s.Sweep.Pipelined[0]) {
			return fmt.Errorf("lab: spec %s: sweep.pipelined is not an axis of the faults scenario", s.Name)
		}
		for _, r := range s.Sweep.FaultRates {
			if r < 0 || r > 1 {
				return fmt.Errorf("lab: spec %s: fault rate %g out of [0,1]", s.Name, r)
			}
		}
	case ScenarioCommuter:
		if len(s.Sweep.FaultRates) > 0 {
			return fmt.Errorf("lab: spec %s: sweep.fault_rates applies to the faults scenario only", s.Name)
		}
		if len(s.Sweep.Workers) > 1 {
			return fmt.Errorf("lab: spec %s: sweep.workers is not an axis of the commuter scenario", s.Name)
		}
		for _, d := range s.Sweep.DirtyFracs {
			if d < 0 || d > 1 {
				return fmt.Errorf("lab: spec %s: dirty fraction %g out of [0,1]", s.Name, d)
			}
		}
		for _, b := range s.Sweep.CacheBudgets {
			if b < 0 {
				return fmt.Errorf("lab: spec %s: cache budget %d is negative", s.Name, b)
			}
		}
	case ScenarioFleet:
		if len(s.Sweep.FaultRates) > 0 {
			return fmt.Errorf("lab: spec %s: sweep.fault_rates applies to the faults scenario only", s.Name)
		}
		if len(s.Sweep.DirtyFracs) > 0 || len(s.Sweep.CacheBudgets) > 0 {
			return fmt.Errorf("lab: spec %s: sweep.dirty_fracs/cache_budgets apply to the commuter scenario only", s.Name)
		}
		if len(s.Sweep.Pipelined) > 1 || (len(s.Sweep.Pipelined) == 1 && s.Sweep.Pipelined[0]) {
			return fmt.Errorf("lab: spec %s: sweep.pipelined is not an axis of the fleet scenario", s.Name)
		}
		for _, d := range s.Sweep.FleetDevices {
			if d < 2 {
				return fmt.Errorf("lab: spec %s: fleet_devices %d needs at least one device pair", s.Name, d)
			}
		}
		if s.Sweep.FleetMigrations < 0 {
			return fmt.Errorf("lab: spec %s: fleet_migrations %d is negative", s.Name, s.Sweep.FleetMigrations)
		}
	case "":
		return fmt.Errorf("lab: spec %s: scenario is required (matrix, faults, commuter, fleet)", s.Name)
	default:
		return fmt.Errorf("lab: spec %s: unknown scenario %q (matrix, faults, commuter, fleet)", s.Name, s.Scenario)
	}
	if s.Scenario != ScenarioFleet && (len(s.Sweep.FleetDevices) > 0 || s.Sweep.FleetMigrations != 0) {
		return fmt.Errorf("lab: spec %s: sweep.fleet_devices/fleet_migrations apply to the fleet scenario only", s.Name)
	}
	for _, w := range s.Sweep.Workers {
		if w < 0 {
			return fmt.Errorf("lab: spec %s: worker width %d is negative", s.Name, w)
		}
	}
	if s.Repetitions < 0 {
		return fmt.Errorf("lab: spec %s: repetitions %d is negative", s.Name, s.Repetitions)
	}
	if s.Sweep.RoundTrips < 0 {
		return fmt.Errorf("lab: spec %s: round_trips %d is negative", s.Name, s.Sweep.RoundTrips)
	}
	return nil
}

// Hash returns the canonical spec digest: sha256 over the spec's
// canonical JSON after defaulting, so semantically identical specs hash
// identically regardless of source format.
func (s Spec) Hash() string {
	data, err := json.Marshal(s.withDefaults())
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("lab: hashing spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ParseSpec decodes a spec from the YAML subset the shipped specs use,
// then validates it.
func ParseSpec(data []byte) (Spec, error) {
	doc, err := parseYAML(data)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := decodeSpec(doc, &s); err != nil {
		return Spec{}, err
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("lab: reading spec: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("lab: %s: %w", path, err)
	}
	return s, nil
}
