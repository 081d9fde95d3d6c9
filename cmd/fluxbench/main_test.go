package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flux/internal/experiments"
)

// TestValidateFlags drives whole command lines through parseArgs. The
// scenario modes and their parameters (-pipeline, -faults, -commuter,
// -fault-rate, -fault-seed, -hops, -dirty, -cache-budget,
// -commuter-pipelined) moved to fluxlab specs; their cases keep their
// names and assert that fluxbench refuses the flags.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantErr string // "" = must pass
	}{
		{name: "all alone", args: "-all"},
		{name: "summary alone", args: "-summary"},
		{name: "table 2", args: "-table 2"},
		{name: "fig 15", args: "-fig 15"},
		{name: "combined modes", args: "-summary -pairing -ablations"},
		{name: "bench-iters with fig 16", args: "-fig 16 -bench-iters 10"},
		{name: "bench-iters with all", args: "-all -bench-iters 10"},
		{name: "play-n with fig 17", args: "-fig 17 -play-n 1000"},
		{name: "globals anywhere", args: "-summary -workers 2 -json out.json -trace t.json"},

		{name: "no mode", args: "", wantErr: "nothing to run"},
		{name: "only globals", args: "-workers 2 -json out.json", wantErr: "nothing to run"},
		{name: "all plus mode", args: "-all -summary", wantErr: "-all already runs everything"},
		{name: "all plus table", args: "-all -table 2", wantErr: "drop -table"},
		{name: "table 0 explicit", args: "-table 0", wantErr: "no table 0"},
		{name: "table 4", args: "-table 4", wantErr: "no table 4"},
		{name: "fig 11", args: "-fig 11", wantErr: "no figure 11"},
		{name: "fig 18", args: "-fig 18", wantErr: "no figure 18"},
		{name: "bench-iters without fig 16", args: "-fig 12 -bench-iters 10", wantErr: "-bench-iters only applies"},
		{name: "play-n without fig 17", args: "-summary -play-n 1000", wantErr: "-play-n only applies"},

		{name: "faults with scoped params", args: "-faults -fault-rate 0.35 -fault-seed 7", wantErr: "not defined: -faults"},
		{name: "commuter with scoped params", args: "-commuter -hops 4", wantErr: "not defined: -commuter"},
		{name: "fault-rate without faults", args: "-summary -fault-rate 0.5", wantErr: "not defined: -fault-rate"},
		{name: "fault-seed without faults", args: "-summary -fault-seed 7", wantErr: "not defined: -fault-seed"},
		{name: "dirty without commuter", args: "-summary -dirty 0.5", wantErr: "not defined: -dirty"},
		{name: "hops without commuter", args: "-all -hops 4", wantErr: "not defined: -hops"},
		{name: "fault rate range", args: "-all -fault-rate 1.5", wantErr: "not defined: -fault-rate"},
		{name: "dirty range", args: "-all -dirty -0.1", wantErr: "not defined: -dirty"},
		{name: "zero hops", args: "-all -hops 0", wantErr: "not defined: -hops"},
		{name: "negative budget", args: "-all -cache-budget -1", wantErr: "not defined: -cache-budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			_, err := parseArgs(strings.Fields(tc.args), &stderr)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("combination passed, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
			if !strings.Contains(stderr.String(), "Usage of fluxbench") {
				t.Errorf("rejected invocation printed no usage:\n%s", stderr.String())
			}
		})
	}
}

// TestModesSelectSectionsOfAll: every mode flag selects, by name,
// sections of the one table -all runs whole.
func TestModesSelectSectionsOfAll(t *testing.T) {
	all := experiments.SectionNames()
	var ablations []string
	for _, name := range all {
		if strings.HasPrefix(name, "ablation_") {
			ablations = append(ablations, name)
		}
	}
	cases := []struct {
		args string
		want []string
	}{
		{"-all", all},
		{"-table 2", []string{"table2"}},
		{"-table 3", []string{"table3"}},
		{"-fig 12", []string{"figure12"}},
		{"-fig 13", []string{"figure13"}},
		{"-fig 14", []string{"figure14"}},
		{"-fig 15", []string{"figure15"}},
		{"-fig 16", []string{"figure16"}},
		{"-fig 17", []string{"figure17"}},
		{"-pairing", []string{"pairing"}},
		{"-failures", []string{"failures"}},
		{"-summary", []string{"summary"}},
		{"-ablations", ablations},
		{"-summary -table 3 -pairing", []string{"table3", "pairing", "summary"}},
	}
	for _, tc := range cases {
		o, err := parseArgs(strings.Fields(tc.args), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if !reflect.DeepEqual(o.sections, tc.want) {
			t.Errorf("%s selects %v, want %v", tc.args, o.sections, tc.want)
		}
	}
	if len(ablations) != 7 || ablations[6] != "ablation_faults" {
		t.Errorf("-ablations selects %v, want the seven ablations ending with ablation_faults", ablations)
	}
}

// TestFigureSectionMatchesAll: the JSON section -fig 12 writes is the
// figure12 section -all writes, metric for metric.
func TestFigureSectionMatchesAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation")
	}
	dir := t.TempDir()
	figure12 := func(args string) experiments.SectionResult {
		t.Helper()
		path := filepath.Join(dir, "results.json")
		o, err := parseArgs(strings.Fields(args+" -json "+path), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(io.Discard, o); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var res experiments.Results
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Sections {
			if s.Name == "figure12" {
				return s
			}
		}
		t.Fatalf("%s wrote no figure12 section", args)
		return experiments.SectionResult{}
	}
	got, want := figure12("-fig 12"), figure12("-all -bench-iters 20 -play-n 10000")
	if !reflect.DeepEqual(got.Metrics, want.Metrics) {
		t.Errorf("-fig 12 wrote %v, -all wrote %v", got.Metrics, want.Metrics)
	}
}

// TestNoJSONWithoutFlag: a command line without -json writes no file,
// so regenerating one section never overwrites the committed
// BENCH_results.json with that section alone.
func TestNoJSONWithoutFlag(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	o, err := parseArgs([]string{"-table", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("-table 2 without -json wrote %s", e.Name())
	}
}
