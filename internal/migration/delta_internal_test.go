package migration

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"flux/internal/chunkstore"
	"flux/internal/cria"
	"flux/internal/faults"
)

// planSink keeps TestNegotiateAllocs' plan on the heap, as the migration
// that prices and records it does.
var planSink *deltaPlan

// TestNegotiateAllocs pins what one delta negotiation with nothing
// poisoned allocates: the plan and its per-chunk verdicts. A third of
// the chunks hit, a third take the rolling delta and a third ship; the
// stores reuse the slots of the digests invalidated before each run,
// so they allocate nothing.
func TestNegotiateAllocs(t *testing.T) {
	const pinned = 2
	guest, source := chunkstore.New(0), chunkstore.New(0)
	m := &Migrator{Opts: Options{Cache: guest, SourceCache: source}}
	chunks := make([]cria.Chunk, 96)
	for i := range chunks {
		c := &chunks[i]
		c.Index, c.Kind, c.Segment = i, cria.ChunkSegment, 0
		c.Raw, c.Wire, c.DirtyFrac = 256<<10, 160<<10, 0.1
		c.Digest[0], c.Digest[1] = byte(i), 1
		c.PrevDigest[0], c.PrevDigest[1] = byte(i), 2
		switch i % 3 {
		case 0:
			guest.Put(c.Digest, c.Raw, c.Wire)
		case 1:
			guest.Put(c.PrevDigest, c.Raw, c.Wire)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range chunks {
			if i%3 != 0 { // forget what the last negotiation taught the guest
				guest.Invalidate(chunks[i].Digest)
			}
		}
		planSink = m.negotiate(chunks, nil)
	})
	if dp := planSink; dp.hits != 32 || dp.rollingHits != 32 || dp.misses != 32 || dp.poisoned != 0 {
		t.Fatalf("negotiation decided %d hits, %d rolling, %d misses, %d poisoned; want 32 of each of the first three",
			dp.hits, dp.rollingHits, dp.misses, dp.poisoned)
	}
	if allocs != pinned {
		t.Errorf("one negotiation allocated %.0f objects, pinned at %d; re-pin only for a deliberate change", allocs, pinned)
	}
}

// TestNegotiatePlan pins every verdict and count one negotiation
// produces for chunks that take each fate: hits (one of them a digest
// the same negotiation put earlier), a profitable and an unprofitable
// rolling delta, misses with and without a previous generation, and
// chunks with no wire bytes. It runs with compression, under
// SkipCompression, and with an injector that poisons the first hit. The
// pinned hashes are what the negotiation produced before its verdicts
// moved into one []chunkPlan.
func TestNegotiatePlan(t *testing.T) {
	const raw = 256 << 10
	digest := func(tag byte) (d chunkstore.Digest) {
		d[0], d[1] = tag, 0xd1
		return d
	}
	chunks := []cria.Chunk{
		{Kind: cria.ChunkMetadata, Segment: -1, Raw: 1200, Wire: 1200, Digest: digest(0)},
		{Kind: cria.ChunkRecordLog, Segment: -1, Raw: 371, Wire: 371, Digest: digest(1)},
		{Kind: cria.ChunkSegment, Raw: raw, Wire: 160 << 10, Digest: digest(2)},
		{Kind: cria.ChunkSegment, Raw: raw, Wire: 150 << 10, Digest: digest(3)},
		{Kind: cria.ChunkSegment, Raw: raw, Wire: 140 << 10, Digest: digest(4), PrevDigest: digest(40), DirtyFrac: 0.05},
		{Kind: cria.ChunkSegment, Raw: raw, Wire: 130 << 10, Digest: digest(5), PrevDigest: digest(50), DirtyFrac: 1},
		{Kind: cria.ChunkSegment, Raw: raw, Wire: 120 << 10, Digest: digest(6), PrevDigest: digest(60), DirtyFrac: 0.05},
		{Kind: cria.ChunkSegment, Raw: raw, Wire: 110 << 10, Digest: digest(7)},
		{Kind: cria.ChunkSegment, Raw: 4096, Wire: 0, Digest: digest(8)},
		{Kind: cria.ChunkSegment, Raw: raw, Wire: 100 << 10, Digest: digest(6)},
	}
	for i := range chunks {
		chunks[i].Index = i
	}
	for _, tc := range []struct {
		name   string
		skip   bool
		faults *faults.Injector
		pinned string
	}{
		{"compressed", false, nil, "2e109efd4938769de1fe287cd42dcb763f645812bc0d4a6eedd818b81fa24397"},
		{"skip-compression", true, nil, "59f3a298b126d0c4ee232e34cc1ebe503af88a845349c3f8efbb7865856f867a"},
		{"poisoned", false, faults.New(1, faults.Plan{faults.ChunkCorrupt: {Probability: 1, Count: 1}}), "053c2feb6b406e2f0d189f7c480c2a43c3218bd4db3f5910e5141f749bc216d0"},
	} {
		guest, source := chunkstore.New(0), chunkstore.New(0)
		for _, tag := range []byte{1, 2, 3, 40, 50} {
			guest.Put(digest(tag), raw, raw/2)
		}
		source.Put(digest(2), raw, raw/2)
		m := &Migrator{Opts: Options{Cache: guest, SourceCache: source, SkipCompression: tc.skip}}
		var fr *faultRun
		if tc.faults != nil {
			fr = &faultRun{inj: tc.faults}
		}
		dp := m.negotiate(chunks, fr)
		var b strings.Builder
		for i, cp := range dp.chunks {
			fmt.Fprintf(&b, "chunk %d %s: wire %d of %d, compress %d\n", i, cp.fate, cp.ship, cp.full, cp.compRaw)
		}
		fmt.Fprintf(&b, "compress %d shipped %d negotiation %d/%d\n", dp.compRaw, dp.shippedImageWire, dp.negUp, dp.negDown)
		fmt.Fprintf(&b, "hits %d misses %d rolling %d poisoned %d not shipped %d delta %d poison events %v\n",
			dp.hits, dp.misses, dp.rollingHits, dp.poisoned, dp.notShipped, dp.deltaBytes, dp.poisonEvents)
		for _, s := range []*chunkstore.Store{guest, source} {
			fmt.Fprintf(&b, "store %+v len %d size %d\n", s.Stats(), s.Len(), s.SizeBytes())
		}
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:]); got != tc.pinned {
			t.Errorf("%s: plan hashes to %s, pinned %s:\n%s", tc.name, got, tc.pinned, b.String())
		}
	}
}
