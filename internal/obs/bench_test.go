package obs

import (
	"testing"
	"time"
)

// The overhead budget: a disabled tracer hands out nil spans, so the
// disabled cost of a span site is one atomic bool load — these
// benchmarks pin that down, and the enabled cases bound what turning
// telemetry on costs.

func BenchmarkEnabledCheckDisabled(b *testing.B) {
	SetEnabled(false)
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		if Enabled() {
			n++
		}
	}
	if n != 0 {
		b.Fatal("unexpected")
	}
}

func BenchmarkDisabledSpanStartEnd(b *testing.B) {
	tr := NewTracer(64)
	tr.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("noop")
		s.Attr(Int64("k", 1))
		s.End()
	}
}

func BenchmarkEnabledSpanStartEnd(b *testing.B) {
	tr := NewTracer(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start("span", Int64("k", 1)).End()
	}
}

func BenchmarkSnapshot1kSpans(b *testing.B) {
	tr := NewTracer(1024)
	clock := func() time.Time { return time.Unix(0, 0) }
	for i := 0; i < 1024; i++ {
		tr.Start("s").SetVirtualClock(clock).End()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(tr.Snapshot()); got != 1024 {
			b.Fatal(got)
		}
	}
}
