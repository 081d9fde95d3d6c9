package experiments_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"flux/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite BENCH_commuter.json from the code")

const (
	resultsPath  = "../../BENCH_results.json"
	commuterPath = "../../BENCH_commuter.json"
)

// TestCommittedBaselines recomputes the two committed sections the
// fluxperf benchmark checks its digests against — the matrix section of
// BENCH_results.json and the commuter section of BENCH_commuter.json —
// and requires them bit for bit. The commuter run must also meet the
// delta-migration headline: on every pair hops 2+ average at most 25%
// of hop 1's wire bytes, the warm-hop hit ratio is above 50%, and the
// caches keep bytes off the wire.
//
// `go test ./internal/experiments -run TestCommittedBaselines -update`
// regenerates BENCH_commuter.json; `fluxbench -all` regenerates
// BENCH_results.json.
func TestCommittedBaselines(t *testing.T) {
	compareSection(t, resultsPath, "matrix", experiments.MatrixMetrics(getMatrix(t)))

	spec := experiments.DefaultCommuterSpec()
	workers := experiments.DefaultMatrixWorkers()
	res := experiments.NewResults(workers)
	var runs []*experiments.CommuterRun
	if err := res.Time("commuter", func() (map[string]float64, error) {
		var err error
		runs, err = experiments.RunCommuter(workers, spec)
		if err != nil {
			return nil, err
		}
		return experiments.CommuterMetrics(runs, spec), nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if st, h1 := r.SteadyAvgBytes(), r.Hop1Bytes(); st > h1/4 {
			t.Errorf("%s: hops 2+ averaged %d bytes, over 25%% of hop 1's %d", r.Pair.Name, st, h1)
		}
	}
	m := res.Sections[0].Metrics
	if m["hit_ratio_pct"] <= 50 {
		t.Errorf("steady-state hit ratio %.1f%%, want > 50%%", m["hit_ratio_pct"])
	}
	if m["not_shipped_mb"] <= 0 {
		t.Error("cache kept nothing off the wire")
	}
	if *update {
		if err := res.WriteFile(commuterPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", commuterPath)
		return
	}
	compareSection(t, commuterPath, "commuter", m)
}

// compareSection requires got to equal the metrics of the named section
// of a committed results file, key for key and bit for bit.
func compareSection(t *testing.T, path, name string, got map[string]float64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file experiments.Results
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, s := range file.Sections {
		if s.Name != name {
			continue
		}
		if len(s.Metrics) != len(got) {
			t.Errorf("%s %s: %d metrics committed, %d computed", path, name, len(s.Metrics), len(got))
		}
		for k, want := range s.Metrics {
			if v, ok := got[k]; !ok || v != want {
				t.Errorf("%s %s: %s = %v, committed %v", path, name, k, v, want)
			}
		}
		return
	}
	t.Errorf("%s: no %q section", path, name)
}
