package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flux/internal/migration"
	"flux/internal/obs"
)

// TestRunModes runs fluxstat's default, -pipeline and -cache modes end
// to end. run returns an error when a stage span and its Timings entry
// drift more than 1% apart, so a nil error is the span-tree check; the
// trace it writes must be valid JSON naming all five stage spans.
func TestRunModes(t *testing.T) {
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()
	for _, tc := range []struct {
		name             string
		pipelined, cache bool
	}{
		{"default", false, false},
		{"pipeline", true, false},
		{"cache", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run snapshots the whole default tracer.
			obs.SetEnabled(true)
			obs.Reset()
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := run("com.king.candycrushsaga", "nexus4", "nexus7-2013", path, tc.pipelined, tc.cache); err != nil {
				t.Fatalf("run: %v", err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string `json:"name"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("trace is not valid JSON: %v", err)
			}
			seen := make(map[string]bool)
			for _, ev := range doc.TraceEvents {
				seen[ev.Name] = true
			}
			for _, st := range migration.Stages() {
				if !seen[st.SpanName()] {
					t.Errorf("trace has no %s span", st.SpanName())
				}
			}
		})
	}
}
