package migration_test

import (
	"testing"
	"time"

	"flux/internal/migration"
	"flux/internal/obs"
)

// TestTimingsInvariants locks in the arithmetic identities the evaluation
// figures rely on: Total is the sum of the five stages, UserPerceived is
// the menu-hidden tail (Transfer + Restore + Reintegration, paper §4),
// and ExcludingTransfer (Figure 14) is UserPerceived minus Transfer.
func TestTimingsInvariants(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	rep := migrate(t, w)

	var sum time.Duration
	for _, s := range migration.Stages() {
		if rep.Timings[s] <= 0 {
			t.Errorf("stage %s has non-positive duration %v", s, rep.Timings[s])
		}
		sum += rep.Timings[s]
	}
	if got := rep.Timings.Total(); got != sum {
		t.Errorf("Total() = %v, want Σ stages = %v", got, sum)
	}
	wantUP := rep.Timings[migration.StageTransfer] +
		rep.Timings[migration.StageRestore] +
		rep.Timings[migration.StageReintegration]
	if got := rep.Timings.UserPerceived(); got != wantUP {
		t.Errorf("UserPerceived() = %v, want Transfer+Restore+Reintegration = %v", got, wantUP)
	}
	if got, want := rep.Timings.ExcludingTransfer(), wantUP-rep.Timings[migration.StageTransfer]; got != want {
		t.Errorf("ExcludingTransfer() = %v, want UserPerceived-Transfer = %v", got, want)
	}
}

// TestStageNamesRoundTrip pins the span-name mapping fluxstat depends on.
func TestStageNamesRoundTrip(t *testing.T) {
	stages := migration.Stages()
	if len(stages) != 5 {
		t.Fatalf("Stages() returned %d stages, want 5", len(stages))
	}
	seen := make(map[string]bool)
	for _, s := range stages {
		name := s.SpanName()
		if seen[name] {
			t.Errorf("duplicate span name %q", name)
		}
		seen[name] = true
		back, ok := migration.StageBySpanName(name)
		if !ok || back != s {
			t.Errorf("StageBySpanName(%q) = (%v, %v), want (%v, true)", name, back, ok, s)
		}
	}
	if _, ok := migration.StageBySpanName("migrate"); ok {
		t.Error("StageBySpanName accepted the root span name")
	}
}

// TestSpansAgreeWithTimings is the fluxstat consistency contract: with
// telemetry enabled, a Migrate run produces a root "migrate" span with
// exactly one child per stage, and each stage span's VIRTUAL duration
// equals its Timings entry exactly — every virtual-clock advance of a
// stage happens inside that stage's span.
func TestSpansAgreeWithTimings(t *testing.T) {
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()
	obs.Reset()

	w := newWorld(t, spec())
	w.runWorkload(t)
	rep := migrate(t, w)

	spans := obs.T().Snapshot()
	var root *obs.SpanData
	byStage := make(map[migration.Stage]time.Duration)
	stageSpans := 0
	for i := range spans {
		s := spans[i]
		if s.Name == migration.SpanMigrate {
			if root != nil {
				t.Fatalf("two migrate root spans in one run")
			}
			root = &spans[i]
		}
		if st, ok := migration.StageBySpanName(s.Name); ok {
			byStage[st] += s.Virt()
			stageSpans++
		}
	}
	if root == nil {
		t.Fatal("no migrate span recorded")
	}
	if root.Parent != 0 {
		t.Errorf("migrate span has parent %d, want root", root.Parent)
	}
	if stageSpans != 5 {
		t.Errorf("recorded %d stage spans, want 5", stageSpans)
	}
	for _, st := range migration.Stages() {
		if got, want := byStage[st], rep.Timings[st]; got != want {
			t.Errorf("stage %s: span virtual duration %v != Timings %v", st, got, want)
		}
	}
	if got, want := root.Virt(), rep.Timings.Total(); got != want {
		t.Errorf("migrate span virtual duration %v != Timings.Total %v", got, want)
	}

}

// TestSpansDisabledByDefault guards the zero-overhead contract: with
// telemetry off (the default), a migration records no spans at all.
func TestSpansDisabledByDefault(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("telemetry unexpectedly enabled at test entry")
	}
	obs.T().Reset()
	w := newWorld(t, spec())
	w.runWorkload(t)
	migrate(t, w)
	if spans := obs.T().Snapshot(); len(spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(spans))
	}
}
