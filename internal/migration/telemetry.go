package migration

// Migration telemetry: each Migrate run is one span tree (root "migrate"
// with one child per Figure 13 stage) on the VIRTUAL time axis — the axis
// the paper's evaluation measures. Stage spans inherit the home device's
// virtual clock, and every clock advance of a stage happens inside its
// span, so a stage span's virtual duration equals its Timings entry
// exactly (fluxstat asserts this, and timings_test.go locks it in). The
// counts and bytes behind each stage are Report fields and span
// attributes.

// Span names of the migration tree, shared with fluxstat's breakdown.
const (
	SpanMigrate = "migrate"
	// SpanFaultRetry is the instant span emitted under a stage span for
	// every fault-recovery retry.
	SpanFaultRetry = "fault.retry"
)

// SpanName returns the stage's span name in the migration trace tree.
func (s Stage) SpanName() string {
	switch s {
	case StagePreparation:
		return "stage.preparation"
	case StageCheckpoint:
		return "stage.checkpoint"
	case StageTransfer:
		return "stage.transfer"
	case StageRestore:
		return "stage.restore"
	case StageReintegration:
		return "stage.reintegration"
	}
	return "stage.unknown"
}

// StageBySpanName resolves a span name back to its Stage; ok is false
// for non-stage spans.
func StageBySpanName(name string) (Stage, bool) {
	for s := StagePreparation; s < numStages; s++ {
		if s.SpanName() == name {
			return s, true
		}
	}
	return 0, false
}

// Stages lists the five migration stages in pipeline order.
func Stages() []Stage {
	out := make([]Stage, 0, int(numStages))
	for s := StagePreparation; s < numStages; s++ {
		out = append(out, s)
	}
	return out
}
