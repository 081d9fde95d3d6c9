package vet

import (
	"reflect"
	"strings"
	"testing"
)

// fixture with a wallclock and a maprange violation, for the determinism
// test.
func mixedFixture(t *testing.T) SourceConfig {
	t.Helper()
	root := writeFixtureRepo(t, map[string]string{
		"internal/netsim/a.go": `package netsim

import "time"

var t0 = time.Now()

func Render(m map[string]int) string {
	var s string
	for k := range m {
		s += k
	}
	return s
}
`,
	})
	return SourceConfig{
		Root:              root,
		VirtualClockDirs:  []string{"internal/netsim"},
		DeterministicDirs: []string{"internal/netsim"},
	}
}

// TestDriverDeterministicOutput: the merged finding list is identical
// across runs.
func TestDriverDeterministicOutput(t *testing.T) {
	cfg := mixedFixture(t)
	first := runFixture(t, cfg)
	for i := 0; i < 5; i++ {
		again := runFixture(t, cfg)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\n%v\nvs\n%v", i, again, first)
		}
	}
}

// TestDriverUnknownAllow: a directive naming a check that does not exist
// is an error finding (a typo would otherwise silently waive nothing).
func TestDriverUnknownAllow(t *testing.T) {
	root := writeFixtureRepo(t, map[string]string{
		"internal/netsim/a.go": `package netsim

//fluxvet:allow wallclocks — typo in the check name
var x = 1
`,
	})
	fs := runFixture(t, SourceConfig{Root: root, VirtualClockDirs: []string{"internal/netsim"}})
	got := findAll(fs, CheckUnknownAllow)
	if len(got) != 1 || got[0].Line != 3 || got[0].Severity != Error {
		t.Fatalf("want unknown-allow error at line 3, got %v", fs)
	}
	if !strings.Contains(got[0].Message, "wallclocks") {
		t.Fatalf("message should name the bad check: %s", got[0].Message)
	}
}

// TestDriverStaleAllow: a directive for a real check that suppresses
// nothing is reported.
func TestDriverStaleAllow(t *testing.T) {
	root := writeFixtureRepo(t, map[string]string{
		"internal/netsim/a.go": `package netsim

//fluxvet:allow wallclock — nothing here reads a clock
var x = 1
`,
	})
	fs := runFixture(t, SourceConfig{Root: root, VirtualClockDirs: []string{"internal/netsim"}})
	got := findAll(fs, CheckStaleAllow)
	if len(got) != 1 || got[0].Line != 3 || got[0].Severity != Warn {
		t.Fatalf("want stale-allow warn at line 3, got %v", fs)
	}
}

// TestSourceCheckNamesStable pins the source check list — allow
// directives and docs reference these names.
func TestSourceCheckNamesStable(t *testing.T) {
	want := []string{
		CheckDeterminismTaint, CheckDurability, CheckLockOrder,
		CheckMapRange, CheckWallClock, CheckWireDrift,
	}
	if got := SourceCheckNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SourceCheckNames() = %v, want %v", got, want)
	}
}
