package netsim

import (
	"testing"
	"time"
)

// TestAppendChunkTimesMatchesChunkTimes: appending into a reused
// buffer yields the same schedule as appending into nil, every round.
func TestAppendChunkTimesMatchesChunkTimes(t *testing.T) {
	l := Link{A: Radio80211n5G, B: Radio80211n24G}
	chunks := []int64{256 << 10, 0, -3, 1 << 20, 7}
	want := l.AppendChunkTimes(nil, chunks)
	buf := make([]time.Duration, 0, len(chunks))
	for round := 0; round < 3; round++ {
		buf = l.AppendChunkTimes(buf[:0], chunks)
		if len(buf) != len(want) {
			t.Fatalf("round %d: %d entries, want %d", round, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("round %d chunk %d: %v, want %v", round, i, buf[i], want[i])
			}
		}
	}
}

// BenchmarkAppendChunkTimes is the zero-allocation schedule used by the
// hot paths (pipelined scheduler, fleet engine): allocs/op must be 0.
func BenchmarkAppendChunkTimes(b *testing.B) {
	l := Link{A: Radio80211n5G, B: Radio80211n24G}
	chunks := make([]int64, 50)
	for i := range chunks {
		chunks[i] = 256 << 10
	}
	buf := make([]time.Duration, 0, len(chunks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = l.AppendChunkTimes(buf[:0], chunks)
		if len(buf) != len(chunks) {
			b.Fatal("bad schedule")
		}
	}
}
