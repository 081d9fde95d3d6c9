package cria

// Wire chunking: the streaming migration pipeline (paper §4: the
// user-perceived window is Transfer+Restore+Reintegration, and transfer
// dominates) ships the image as an ordered stream of chunks so the home
// device can checkpoint and compress chunk i+1 while chunk i is on the
// wire and the guest restores chunk i-1. Chunks carry exact raw and
// compressed sizes; summed, they reproduce the sequential path's
// PayloadBytes / WireBytes byte-for-byte, which is what keeps the
// pipelined and sequential migration reports size-identical.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"flux/internal/kernel"
)

// ChunkKind labels what a wire chunk carries.
type ChunkKind uint8

const (
	// ChunkMetadata carries a slice of the compressed image metadata
	// (the Marshal output): spec, descriptor table, handle table,
	// runtime snapshot. It streams first so the guest can stand up the
	// wrapper process while memory is still in flight.
	ChunkMetadata ChunkKind = iota
	// ChunkRecordLog carries a slice of the pruned Selective Record log;
	// it streams before memory so adaptive replay can start early.
	ChunkRecordLog
	// ChunkSegment carries a slice of one checkpointed memory segment.
	ChunkSegment
	// ChunkDelta carries non-image wire data (APK + data-directory
	// deltas). cria never emits it; the migration pipeline prepends one
	// for the rsync-style delta, which needs no checkpointing.
	ChunkDelta
)

func (k ChunkKind) String() string {
	switch k {
	case ChunkMetadata:
		return "metadata"
	case ChunkRecordLog:
		return "record-log"
	case ChunkSegment:
		return "segment"
	case ChunkDelta:
		return "delta"
	}
	return fmt.Sprintf("chunkkind(%d)", uint8(k))
}

// Chunk is one ordered unit of the image wire stream.
type Chunk struct {
	// Index is the chunk's position in the stream.
	Index int
	// Kind is the payload class.
	Kind ChunkKind
	// Segment indexes Image.Segments for ChunkSegment chunks; -1
	// otherwise.
	Segment int
	// Raw is the chunk's uncompressed size. For metadata and record-log
	// chunks — which are shipped in their serialized form — Raw equals
	// Wire.
	Raw int64
	// Wire is the chunk's on-the-wire (compressed) size.
	Wire int64
	// Digest is the chunk's content identity: SHA-256 over the chunk's
	// uncompressed payload. Metadata and record-log chunks digest their
	// actual serialized bytes; segment chunks — whose payload the
	// simulation carries as (size, entropy) descriptors, never
	// materialized — digest a canonical encoding of the segment's
	// identity, content generation, and the chunk's position, which has
	// the property the cache needs: equal iff the same bytes would be
	// equal. The delta-migration negotiation keys the chunkstore on it.
	Digest [sha256.Size]byte
	// PrevDigest is the identity the same chunk position had one content
	// generation ago (zero when the segment was never rewritten, and for
	// metadata/record-log chunks). A peer caching PrevDigest but not
	// Digest can take the rsyncx rolling-delta path instead of a full
	// ship.
	PrevDigest [sha256.Size]byte
	// DirtyFrac is the fraction of the chunk rewritten between PrevDigest
	// and Digest (the segment's last-generation rewrite fraction); it
	// sizes the rolling delta's literal bytes.
	DirtyFrac float64
}

// Chunks partitions the image into ordered wire chunks of at most
// chunkBytes raw bytes each: metadata (meta, the image's Marshal output)
// first, then the record log, then every memory segment in table order.
// Exactness invariants (tested):
//
//   - sum of Wire over all chunks == WireBytes(meta)
//   - sum of Wire over ChunkSegment chunks == CompressedPayloadBytes()
//   - sum of Raw over ChunkSegment chunks == PayloadBytes()
//
// Per-segment compressed bytes are apportioned cumulatively
// (floor(C·cum/S) deltas), so they sum to the segment's CompressedSize
// exactly regardless of the chunk size — including degenerate 1-byte
// chunks.
func (img *Image) Chunks(meta []byte, chunkBytes int64) ([]Chunk, error) {
	if chunkBytes < 1 {
		return nil, fmt.Errorf("cria: chunk size must be at least 1 byte, got %d", chunkBytes)
	}
	n := chunkCount(int64(len(meta)), chunkBytes) + chunkCount(int64(len(img.RecordLog)), chunkBytes)
	for _, seg := range img.Segments {
		n += chunkCount(seg.Size, chunkBytes)
	}
	chunks := make([]Chunk, 0, n)
	add := func(c Chunk) {
		c.Index = len(chunks)
		chunks = append(chunks, c)
	}
	// Metadata and record log ship in serialized form: Raw == Wire.
	for off := int64(0); off < int64(len(meta)); off += chunkBytes {
		n := int64(len(meta)) - off
		if n > chunkBytes {
			n = chunkBytes
		}
		add(Chunk{Kind: ChunkMetadata, Segment: -1, Raw: n, Wire: n,
			Digest: sha256.Sum256(meta[off : off+n])})
	}
	for off := int64(0); off < int64(len(img.RecordLog)); off += chunkBytes {
		n := int64(len(img.RecordLog)) - off
		if n > chunkBytes {
			n = chunkBytes
		}
		add(Chunk{Kind: ChunkRecordLog, Segment: -1, Raw: n, Wire: n,
			Digest: sha256.Sum256(img.RecordLog[off : off+n])})
	}
	for si, seg := range img.Segments {
		size := seg.Size
		if size <= 0 {
			continue
		}
		comp := seg.CompressedSize()
		var cum, compPrev int64
		for cum < size {
			n := size - cum
			if n > chunkBytes {
				n = chunkBytes
			}
			c := Chunk{Kind: ChunkSegment, Segment: si, Raw: n,
				Digest:    segmentChunkDigest(seg, seg.Gen, cum, n),
				DirtyFrac: seg.DirtyFrac,
			}
			if seg.Gen > 0 {
				c.PrevDigest = segmentChunkDigest(seg, seg.Gen-1, cum, n)
			}
			cum += n
			// Cumulative apportioning: wire_i = floor(C·cum_i/S) −
			// floor(C·cum_{i−1}/S); the telescoping sum is exactly C.
			compCum := int64(float64(comp) * (float64(cum) / float64(size)))
			if cum == size {
				compCum = comp // close out exactly despite float rounding
			}
			c.Wire = compCum - compPrev
			add(c)
			compPrev = compCum
		}
	}
	return chunks, nil
}

// chunkCount is how many chunks of at most chunkBytes the loops in
// Chunks cut size bytes into: ⌈size/chunkBytes⌉, and none for size <= 0.
func chunkCount(size, chunkBytes int64) int {
	if size <= 0 {
		return 0
	}
	return int((size-1)/chunkBytes + 1)
}

// segmentChunkDigest is the canonical content identity of one chunk of a
// memory segment at a given content generation. The simulation never
// materializes segment payloads, so the identity is synthesized from
// everything that determines the (virtual) bytes: the segment's name,
// kind, size, entropy, its content generation, and the chunk's offset and
// length within it. Two chunks collide exactly when the simulated content
// would be identical — which is the property the delta-migration cache
// needs, and what a real implementation gets by hashing the page bytes.
func segmentChunkDigest(seg kernel.MemSegment, gen uint64, off, n int64) [sha256.Size]byte {
	// The encoding is built in a stack array; only a segment name longer
	// than ~190 bytes makes append move it to the heap.
	var stack [256]byte
	buf := append(stack[:0], "flux.segchunk.v1"...)
	buf = append(buf, seg.Name...)
	buf = append(buf, 0, byte(seg.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seg.Size))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(seg.Entropy))
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	return sha256.Sum256(buf)
}
