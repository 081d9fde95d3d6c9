package migration

// White-box tests for the fault-recovery arithmetic: retry backoff
// capping, the resumable chunk partition, and the pipeline scheduler's
// handling of degenerate (zero/negative) chunk sizes.

import (
	"testing"
	"testing/quick"
	"time"

	"flux/internal/cria"
	"flux/internal/netsim"
)

func TestRetryPolicyBackoffCapped(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}
	want := []time.Duration{
		50 * time.Millisecond, // attempt 1
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped
		2 * time.Second,
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Degenerate attempts clamp to the first backoff.
	if p.Backoff(0) != p.Backoff(1) || p.Backoff(-3) != p.Backoff(1) {
		t.Error("non-positive attempts not clamped")
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	got := RetryPolicy{}.withDefaults()
	if got != DefaultRetryPolicy() {
		t.Errorf("zero policy = %+v, want defaults %+v", got, DefaultRetryPolicy())
	}
	// Partial overrides keep the set field.
	p := RetryPolicy{MaxRetries: 9}.withDefaults()
	if p.MaxRetries != 9 || p.BaseBackoff != DefaultRetryPolicy().BaseBackoff {
		t.Errorf("partial override mangled: %+v", p)
	}
}

func TestChunkWiresPartition(t *testing.T) {
	// Degenerate totals: one zero chunk (the session can still flap).
	for _, n := range []int64{0, -100} {
		if got := chunkWires(n, 1<<20); len(got) != 1 || got[0] != 0 {
			t.Errorf("chunkWires(%d) = %v, want [0]", n, got)
		}
	}
	// Zero/negative chunk size falls back to the default.
	if got := chunkWires(DefaultPipelineChunkBytes+1, 0); len(got) != 2 {
		t.Errorf("default chunk size not applied: %v", got)
	}
	// The partition always sums to the total with all chunks in
	// (0, chunkBytes].
	f := func(total int64, cs int64) bool {
		if total < 0 {
			total = -total
		}
		total %= 64 << 20
		if total == 0 {
			total = 1
		}
		cs = cs%(4<<20) + 1
		if cs <= 0 {
			cs += 4 << 20
		}
		var sum int64
		for _, c := range chunkWires(total, cs) {
			if c <= 0 || c > cs {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScheduleStreamDegenerateChunks: the pipeline scheduler must accept
// zero-raw chunks (empty segments, empty record logs) without producing
// negative lane intervals or non-monotone stage boundaries.
func TestScheduleStreamDegenerateChunks(t *testing.T) {
	chunks := []cria.Chunk{
		{Index: 0, Kind: cria.ChunkMetadata, Segment: -1, Raw: 0, Wire: 0},
		{Index: 1, Kind: cria.ChunkRecordLog, Segment: -1, Raw: 0, Wire: 0},
		{Index: 2, Kind: cria.ChunkSegment, Segment: 0, Raw: 0, Wire: 0},
	}
	p := planPipeline(chunks, 1.0, false, nil)
	link := netsim.Link{A: netsim.Radio80211n5G, B: netsim.Radio80211n24G}
	p.scheduleStream(0, link, 1.0, 0)
	for i, l := range p.Lanes {
		if l.CkptEnd < l.CkptStart || l.CompEnd < l.CompStart ||
			l.XferEnd < l.XferStart || l.RstrEnd < l.RstrStart {
			t.Errorf("lane %d has a negative interval: %+v", i, l)
		}
		if l.XferStart < l.CompEnd || l.RstrStart < l.XferEnd {
			t.Errorf("lane %d violates causality: %+v", i, l)
		}
	}
	if p.XferDone < p.CompDone || p.RstrDone < p.XferDone {
		t.Errorf("stage boundaries not monotone: comp=%v xfer=%v rstr=%v", p.CompDone, p.XferDone, p.RstrDone)
	}
	if tail := p.reintTail(0, 0, 1.0); tail < 0 {
		t.Errorf("negative reintegration tail %v", tail)
	}
}
