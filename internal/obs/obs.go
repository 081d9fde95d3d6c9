// Package obs is Flux's zero-dependency telemetry layer: hierarchical
// spans on virtual and wall time, collected into a bounded ring.
//
// The paper's evaluation (Figs 13–16) is a breakdown of where time and
// bytes go during a migration — per-stage durations, checkpoint image
// composition, record-log growth. The layers already return that
// breakdown as typed values (migration.Report, record.Stats,
// replay.Stats, chunkstore.Stats); spans add the one thing those cannot
// carry, the tree of where each stage's time went: each migration stage
// runs inside a span carrying its byte attributes, and CRIA and replay
// nest their sections beneath it. WriteChromeTrace turns the tree into
// Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// Telemetry is globally disabled by default. A disabled tracer hands
// out nil spans and every Span method accepts nil, so a disabled span
// start costs one atomic bool load; the Attr values a caller passes are
// still built, but on the caller's stack: they hold typed values, not
// interfaces, and no span keeps the caller's slice, so nothing
// allocates. Binaries opt in with obs.SetEnabled(true).
//
// Spans track two time axes. Wall time is the host's monotonic clock —
// what profiling the simulator itself needs. Virtual time comes from the
// simulated device clocks (kernel.Clock) — what reproduces the paper's
// figures. A span without a virtual clock uses wall time on both axes;
// child spans inherit the parent's virtual clock, so threading the home
// device's clock into the migration root span is enough to stamp the
// whole tree.
package obs

// defaultTracer is the process-wide tracer. Its own enable flag is the
// global telemetry switch: disabled until a binary or test opts in.
var defaultTracer = func() *Tracer {
	t := NewTracer(DefaultSpanCapacity)
	t.SetEnabled(false)
	return t
}()

// Enabled reports whether telemetry collection is on.
func Enabled() bool { return defaultTracer.Enabled() }

// SetEnabled switches telemetry collection globally.
func SetEnabled(on bool) { defaultTracer.SetEnabled(on) }

// T returns the process-wide default tracer.
func T() *Tracer { return defaultTracer }

// Reset clears the default tracer's span buffer. Tests use it to
// isolate measurements.
func Reset() { defaultTracer.Reset() }
