package lab

// Spec parsing rides on internal/yamlite, the shared YAML-subset parser
// (extracted from this package once fluxfleet grew a second declarative
// spec surface). The wrappers below pin the error vocabulary this
// package has always used — "lab: spec line %d: ..." for parse errors,
// "lab: spec key %s: ..." for decode errors — so spec diagnostics are
// byte-identical across the extraction.

import (
	"fmt"

	"flux/internal/yamlite"
)

type yamlValue = yamlite.Value

type yamlMap = yamlite.Map

func parseYAML(data []byte) (yamlMap, error) {
	return yamlite.Parse(data, "lab: spec")
}

func sortedKeys(m yamlMap) []string {
	return yamlite.SortedKeys(m)
}

func yamlString(v yamlValue, key string) (string, error) {
	return yamlite.String(v, "lab: spec key "+key)
}

func yamlInt(v yamlValue, key string) (int, error) {
	return yamlite.Int(v, "lab: spec key "+key)
}

func yamlFloat(v yamlValue, key string) (float64, error) {
	return yamlite.Float(v, "lab: spec key "+key)
}

func yamlIntList(v yamlValue, key string) ([]int, error) {
	return yamlite.IntList(v, "lab: spec key "+key)
}

func yamlFloatList(v yamlValue, key string) ([]float64, error) {
	return yamlite.FloatList(v, "lab: spec key "+key)
}

func yamlBoolList(v yamlValue, key string) ([]bool, error) {
	return yamlite.BoolList(v, "lab: spec key "+key)
}

// decodeSpec maps a parsed document onto Spec, rejecting unknown keys so
// typos surface instead of silently no-oping.
func decodeSpec(doc yamlMap, s *Spec) error {
	for _, key := range sortedKeys(doc) {
		v := doc[key]
		var err error
		switch key {
		case "schema":
			s.Schema, err = yamlInt(v, key)
		case "name":
			s.Name, err = yamlString(v, key)
		case "scenario":
			s.Scenario, err = yamlString(v, key)
		case "seed":
			var n int
			n, err = yamlInt(v, key)
			s.Seed = int64(n)
		case "repetitions":
			s.Repetitions, err = yamlInt(v, key)
		case "counterfactual_k":
			s.CounterfactualK, err = yamlInt(v, key)
		case "sweep":
			if !v.IsMap {
				return fmt.Errorf("lab: spec key sweep: expected a nested block")
			}
			err = decodeSweep(v.Child, &s.Sweep)
		case "criteria":
			if !v.IsMap {
				return fmt.Errorf("lab: spec key criteria: expected a nested block")
			}
			err = decodeCriteria(v.Child, &s.Criteria)
		default:
			return fmt.Errorf("lab: spec key %q is not part of the spec schema", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func decodeSweep(doc yamlMap, sw *Sweep) error {
	for _, key := range sortedKeys(doc) {
		v := doc[key]
		var err error
		switch key {
		case "workers":
			sw.Workers, err = yamlIntList(v, "sweep."+key)
		case "pipelined":
			sw.Pipelined, err = yamlBoolList(v, "sweep."+key)
		case "fault_rates":
			sw.FaultRates, err = yamlFloatList(v, "sweep."+key)
		case "dirty_fracs":
			sw.DirtyFracs, err = yamlFloatList(v, "sweep."+key)
		case "cache_budgets":
			var ints []int
			ints, err = yamlIntList(v, "sweep."+key)
			for _, n := range ints {
				sw.CacheBudgets = append(sw.CacheBudgets, int64(n))
			}
		case "round_trips":
			sw.RoundTrips, err = yamlInt(v, "sweep."+key)
		case "fleet_devices":
			sw.FleetDevices, err = yamlIntList(v, "sweep."+key)
		case "fleet_migrations":
			sw.FleetMigrations, err = yamlInt(v, "sweep."+key)
		default:
			return fmt.Errorf("lab: spec key sweep.%s is not a sweep axis", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func decodeCriteria(doc yamlMap, c *Criteria) error {
	for _, key := range sortedKeys(doc) {
		v := doc[key]
		var err error
		switch key {
		case "max_stage_mape_pct":
			c.MaxStageMAPEPct, err = yamlFloat(v, "criteria."+key)
		case "max_bytes_mape_pct":
			c.MaxBytesMAPEPct, err = yamlFloat(v, "criteria."+key)
		case "min_pearson_r":
			c.MinPearsonR, err = yamlFloat(v, "criteria."+key)
		case "max_headline_mape_pct":
			c.MaxHeadlineMAPEPct, err = yamlFloat(v, "criteria."+key)
		case "min_recovery_pct":
			c.MinRecoveryPct, err = yamlFloat(v, "criteria."+key)
		default:
			return fmt.Errorf("lab: spec key criteria.%s is not a criterion", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
