package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedReports pins the fleet's outputs in the tier-1 suite:
// the smoke report equals the committed BENCH_fleet.json byte for byte
// (the comparison fluxfleet -check makes), and the 10k-device scale
// spec renders to fixed SHA-256 digests at three seeds.
func TestCommittedReports(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		seed     int64
		baseline string // committed report the render must equal
		sha256   string // else the render's digest
	}{
		{spec: "smoke.yaml", seed: 42, baseline: "../../BENCH_fleet.json"},
		{spec: "scale-10k.yaml", seed: 1, sha256: "3c162ebe6a60bcbbea41ea0adec357792a52b09505152cefd7aca23d8433ee35"},
		{spec: "scale-10k.yaml", seed: 2, sha256: "d6e005801086992c72fe95f795b9bf380abea5a8c2ce9198732f3dbf31536170"},
		{spec: "scale-10k.yaml", seed: 7, sha256: "f5963769346c9ecb12d88039668bcaf337a6afd715d9a0849d5f60403171bdad"},
	} {
		t.Run(fmt.Sprintf("%s/seed%d", strings.TrimSuffix(tc.spec, ".yaml"), tc.seed), func(t *testing.T) {
			spec, err := LoadSpec(filepath.Join("../../fleet/specs", tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = tc.seed
			s, err := NewSim(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			rep := s.Report()
			if tc.baseline != "" {
				if err := rep.CheckFile(tc.baseline); err != nil {
					t.Fatal(err)
				}
				return
			}
			out, err := rep.Render()
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256.Sum256(out); hex.EncodeToString(got[:]) != tc.sha256 {
				t.Fatalf("report SHA-256 %x, want %s", got, tc.sha256)
			}
		})
	}
}

// TestCheckFileComparesBytes: a baseline that decodes to the same report
// but differs in its bytes, here by a stale extra field, fails the
// check, as does a missing baseline.
func TestCheckFileComparesBytes(t *testing.T) {
	rep := &Report{Schema: ReportSchemaVersion, Name: "check", Seed: 1, Classes: []ClassStats{{Name: "c"}}}
	out, err := rep.Render()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	exact := filepath.Join(dir, "exact.json")
	stale := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(exact, out, 0o644); err != nil {
		t.Fatal(err)
	}
	withField := strings.Replace(string(out), "{\n", "{\n  \"retired\": 1,\n", 1)
	if err := os.WriteFile(stale, []byte(withField), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckFile(exact); err != nil {
		t.Fatalf("identical baseline: %v", err)
	}
	if err := rep.CheckFile(stale); err == nil {
		t.Fatal("a baseline with an extra field passed the check")
	}
	if err := rep.CheckFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("a missing baseline passed the check")
	}
}
