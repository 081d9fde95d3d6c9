package vet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixtureRepo lays out a miniature repo shaped like this one —
// internal/<pkg>/ dirs under a root — and returns the root.
func writeFixtureRepo(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runFixture(t *testing.T, cfg SourceConfig) []Finding {
	t.Helper()
	fs, err := RunSource(cfg)
	if err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	return fs
}

// TestSourceWallClockSeeded seeds a time.Now into a netsim-shaped package
// — the acceptance mutation — and asserts the wallclock pass pins it to
// the exact line, while kernel-clock usage stays clean.
func TestSourceWallClockSeeded(t *testing.T) {
	root := writeFixtureRepo(t, map[string]string{
		"internal/netsim/link.go": `package netsim

import "time"

func transferETA(bytes int64, bps int64) time.Time {
	start := time.Now() // seeded wall-clock leak
	return start.Add(time.Duration(bytes/bps) * time.Second)
}

func window() time.Duration { return 3 * time.Second } // pure constructor: fine
`,
	})
	fs := runFixture(t, SourceConfig{Root: root, VirtualClockDirs: []string{"internal/netsim"}})
	got := findAll(fs, "wallclock")
	if len(got) != 1 {
		t.Fatalf("want exactly the seeded time.Now, got %v", fs)
	}
	f := got[0]
	if !strings.HasSuffix(f.File, filepath.Join("internal", "netsim", "link.go")) || f.Line != 6 {
		t.Fatalf("wallclock fired at %s:%d, want link.go:6", f.File, f.Line)
	}
}

func TestSourceWallClockDenyList(t *testing.T) {
	root := writeFixtureRepo(t, map[string]string{
		"internal/migration/m.go": `package migration

import "time"

func bad(ch chan int) {
	time.Sleep(time.Millisecond)
	_ = time.Since(time.Time{})
	select {
	case <-ch:
	case <-time.After(time.Second):
	}
	_ = time.NewTicker(time.Second)
}
`,
	})
	fs := runFixture(t, SourceConfig{Root: root, VirtualClockDirs: []string{"internal/migration"}})
	if got := findAll(fs, "wallclock"); len(got) != 4 {
		t.Fatalf("want Sleep/Since/After/NewTicker flagged, got %v", fs)
	}
}

func TestSourceWallClockAllowDirective(t *testing.T) {
	root := writeFixtureRepo(t, map[string]string{
		"internal/faults/f.go": `package faults

import "time"

//fluxvet:allow wallclock — telemetry measures real cost
var t0 = time.Now()

var t1 = time.Now() //fluxvet:allow wallclock — same-line form

var t2 = time.Now() // no directive: flagged
`,
	})
	fs := runFixture(t, SourceConfig{Root: root, VirtualClockDirs: []string{"internal/faults"}})
	got := findAll(fs, "wallclock")
	if len(got) != 1 || got[0].Line != 10 {
		t.Fatalf("only the undirected site should fire, got %v", fs)
	}
}

func TestSourceWallClockRenamedImportAndShadow(t *testing.T) {
	root := writeFixtureRepo(t, map[string]string{
		"internal/netsim/a.go": `package netsim

import wall "time"

var leak = wall.Now() // renamed import still flagged
`,
		"internal/netsim/b.go": `package netsim

type fake struct{}

func (fake) Now() int { return 0 }

func ok() int {
	var time fake // shadows the package name: not the time package
	return time.Now()
}
`,
	})
	fs := runFixture(t, SourceConfig{Root: root, VirtualClockDirs: []string{"internal/netsim"}})
	got := findAll(fs, "wallclock")
	if len(got) != 1 || !strings.HasSuffix(got[0].File, "a.go") {
		t.Fatalf("want only the renamed-import leak, got %v", fs)
	}
}

// TestSourceMapRange covers the deterministic-path pass: a bare map range
// feeding output fires; the order-independent idioms stay clean.
func TestSourceMapRange(t *testing.T) {
	root := writeFixtureRepo(t, map[string]string{
		"internal/experiments/r.go": `package experiments

import "fmt"

func render(metrics map[string]float64) {
	for k, v := range metrics { // nondeterministic output order
		fmt.Println(k, v)
	}
}

func count(metrics map[string]float64) int {
	n := 0
	for range metrics { // integer accumulation: order-independent
		n++
	}
	return n
}

func keys(metrics map[string]float64) []string {
	var out []string
	for k := range metrics { // collect-then-sort idiom
		out = append(out, k)
	}
	return out
}

func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m { // map-to-map transform
		out[v] = k
	}
	return out
}

func contains(m map[string]int, want int) bool {
	for _, v := range m { // constant guard-return: order-independent
		if v == want {
			return true
		}
	}
	return false
}

func sum(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // float accumulation is NOT commutative
		total += v
	}
	return total
}
`,
	})
	fs := runFixture(t, SourceConfig{Root: root, DeterministicDirs: []string{"internal/experiments"}})
	got := findAll(fs, "maprange")
	if len(got) != 2 {
		t.Fatalf("want the render loop and the float sum flagged, got %v", fs)
	}
	if got[0].Line != 6 || got[1].Line != 46 {
		t.Fatalf("maprange fired at lines %d,%d; want 6,46", got[0].Line, got[1].Line)
	}
}

func TestSourceSkipsTestFilesByDefault(t *testing.T) {
	root := writeFixtureRepo(t, map[string]string{
		"internal/netsim/x_test.go": `package netsim

import "time"

var deadline = time.Now()
`,
	})
	fs := runFixture(t, SourceConfig{Root: root, VirtualClockDirs: []string{"internal/netsim"}})
	if len(fs) != 0 {
		t.Fatalf("_test.go should be skipped: %v", fs)
	}
}

// TestSourceRepoInvariantHolds runs the shipped configuration over this
// repository itself: after the PR's allow-annotations, the tree is clean.
// This is the same gate `make lint` and CI enforce.
func TestSourceRepoInvariantHolds(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("repo root not found: %v", err)
	}
	fs := runFixture(t, DefaultSourceConfig(root))
	if len(fs) != 0 {
		t.Fatalf("repo violates its own source invariants:\n%v", fs)
	}
}
