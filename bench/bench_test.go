package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics requires got to hold exactly the named metrics, each with
// its declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want []declared) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		if m, ok := got[w.Name]; !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmoke runs every workload twice: traced at seed 1 and untraced at
// the held-out seed 2, one measured pass each. Every pass must match its
// committed digest, no op may fail, and the metrics must be the per-layer
// and end-to-end sets BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs))
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, def := range workloads {
		if s.Workloads[i].Name != def.name {
			t.Fatalf("workload %d is %s, BENCHMARK.json says %s", i, def.name, s.Workloads[i].Name)
		}
		for _, c := range []struct {
			seed    int64
			traced  bool
			metrics []declared
		}{{1, true, s.PerLayer}, {2, false, s.EndToEnd}} {
			if _, ok := digests[def.name][c.seed]; !ok {
				t.Fatalf("%s: no committed digest for seed %d", def.name, c.seed)
			}
			res := run(def, config{root: "..", seed: c.seed, traced: c.traced, setups: 1}, io.Discard)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s seed %d: correct %v, %d of %d ops failed",
					def.name, c.seed, res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res.Metrics, c.metrics)
		}
	}
}
