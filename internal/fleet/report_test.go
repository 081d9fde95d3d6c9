package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCH_fleet.json from the smoke spec")

// scale10kSeed7 is the scale-10k report's digest at the spec's own seed,
// whatever the profiling width.
const scale10kSeed7 = "f5963769346c9ecb12d88039668bcaf337a6afd715d9a0849d5f60403171bdad"

// TestCommittedReports pins the fleet's outputs in the tier-1 suite:
// the smoke report equals the committed BENCH_fleet.json byte for byte,
// and the 10k-device scale spec renders to fixed SHA-256 digests at
// three seeds, and at seed 7 also at profiling widths 1 and 16. Every
// field is a deterministic function of (spec, seed), so any difference,
// a stale extra field in the baseline included, is a real change.
//
// `go test ./internal/fleet -run TestCommittedReports -update` rewrites
// BENCH_fleet.json.
func TestCommittedReports(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		seed     int64
		workers  int    // profiling width; 0 = one per CPU
		baseline string // committed report the render must equal
		sha256   string // else the render's digest
	}{
		{spec: "smoke.yaml", seed: 42, baseline: "../../BENCH_fleet.json"},
		{spec: "scale-10k.yaml", seed: 1, sha256: "3c162ebe6a60bcbbea41ea0adec357792a52b09505152cefd7aca23d8433ee35"},
		{spec: "scale-10k.yaml", seed: 2, sha256: "d6e005801086992c72fe95f795b9bf380abea5a8c2ce9198732f3dbf31536170"},
		{spec: "scale-10k.yaml", seed: 7, sha256: scale10kSeed7},
		{spec: "scale-10k.yaml", seed: 7, workers: 1, sha256: scale10kSeed7},
		{spec: "scale-10k.yaml", seed: 7, workers: 16, sha256: scale10kSeed7},
	} {
		name := fmt.Sprintf("%s/seed%d", strings.TrimSuffix(tc.spec, ".yaml"), tc.seed)
		if tc.workers != 0 {
			name += fmt.Sprintf("/workers%d", tc.workers)
		}
		t.Run(name, func(t *testing.T) {
			spec, err := LoadSpec(filepath.Join("../../fleet/specs", tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = tc.seed
			s, err := NewSim(spec, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			out, err := s.Report().Render()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.baseline != "" && *update:
				if err := os.WriteFile(tc.baseline, out, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", tc.baseline)
			case tc.baseline != "":
				want, err := os.ReadFile(tc.baseline)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Fatalf("report differs from %s; if the change is intended, rerun with -update and review the diff", tc.baseline)
				}
			default:
				if got := sha256.Sum256(out); hex.EncodeToString(got[:]) != tc.sha256 {
					t.Fatalf("report SHA-256 %x, want %s", got, tc.sha256)
				}
			}
		})
	}
}
