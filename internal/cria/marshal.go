package cria

// Image serialization: a chunk-parallel container format.
//
// The seed serialized an image as one gob stream behind one DEFLATE
// stream, strictly sequential. This file replaces it with a parallel
// path:
//
//   - The image is split into a *core* record (metadata, descriptor and
//     handle tables, record log) and fixed-size shards of the memory
//     segment table. The core's gob bytes are cut into fixed-size blocks;
//     every block and every shard is DEFLATE-compressed independently by a
//     bounded worker pool (GOMAXPROCS-wide), then reassembled in
//     deterministic index order, so output bytes are identical at any
//     parallelism.
//   - The pool stays even though an average image is one core block and
//     one shard. Running the same loop on the caller's goroutine writes
//     the same bytes, but fluxperf then measured a peak live heap
//     (heap_live_peak_mb) 15–30% higher on matrix-cold and
//     commuter-delta, beyond the benchmark's 15% bound; the same loop on
//     one spawned goroutine did not raise it. Why the hand-off matters is
//     not known, so measure the peak before removing the pool.
//   - flate writers/readers and scratch buffers are sync.Pool-backed: the
//     steady-state Marshal path does not re-allocate the ~1 MB flate
//     window per call (BenchmarkImageMarshal tracks allocs/op).
//   - Marshal is a pure function of the image. Migrate calls it once and
//     hands the bytes to WireBytes, Chunks and the guest's Unmarshal.
//   - The runtime snapshot's SavedState map is serialized as key-sorted
//     pairs, making the wire bytes (and therefore CompressedImageBytes)
//     deterministic across runs — gob's native map encoding is not.
//
// The container carries a CRC32 (Castagnoli) checksum per compressed
// block, written between the block's length and its bytes. Unmarshal
// verifies every checksum before inflating, so wire corruption is
// detected deterministically (and cheaply) instead of surfacing as a
// DEFLATE or gob error deep in the decode — the migration fault-recovery
// path relies on this to re-request exactly the corrupt chunk.
//
// Unmarshal accepts exactly the three containers Marshal writes (FXC2,
// FXC3, FXC4) and refuses any other leading bytes before DEFLATE or gob
// see them.

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"flux/internal/android"
	"flux/internal/kernel"
)

const (
	// marshalMagic tags the default chunk-parallel container format:
	// per-block CRC32 checksums between each block length and its bytes.
	marshalMagic = "FXC2"
	// marshalMagicV3 tags the content-addressed container revision: each
	// block carries, after its CRC32, a SHA-256 digest of the block's
	// UNCOMPRESSED bytes. The digest is the block's content identity for
	// the delta-migration chunk cache (internal/chunkstore); Unmarshal
	// verifies it after inflating, so a poisoned cache entry whose framing
	// still CRCs clean is caught deterministically. Produced only when the
	// image sets ContentDigests — FXC2 stays the default so cache-disabled
	// runs are byte-identical to before.
	marshalMagicV3 = "FXC3"
	// marshalMagicV4 tags the anchored container revision: after the
	// magic come a uvarint flags word (bit 0 = per-block content
	// digests), a uvarint-length-prefixed record-log anchor (seglog wire
	// form, self-checksummed), then the FXC2/FXC3 block layout. Produced
	// only when the image carries a LogAnchor, so anchor-free images
	// keep their exact legacy wire bytes.
	marshalMagicV4 = "FXC4"
	// marshalCoreBlockBytes is the raw gob bytes per parallel-compressed
	// core block. Fixed (not GOMAXPROCS-derived) so the container bytes
	// are machine-independent.
	marshalCoreBlockBytes = 256 << 10
	// marshalShardSegs is the number of memory-segment records per
	// parallel gob+DEFLATE shard.
	marshalShardSegs = 256
)

// imageCore is the wire form of everything except the segment table.
type imageCore struct {
	Pkg            string
	Spec           android.AppSpec
	HomeDevice     string
	CheckpointTime time.Time
	VPID           int

	FDs     []kernel.FD
	Handles []HandleRecord
	Ashmem  []kernel.AshmemRegion
	Runtime runtimeWire

	RecordLog       []byte
	HomeVolumeSteps int32

	// SegmentShards is the shard count that follows the core blocks.
	SegmentShards int
}

// kvPair is one SavedState entry in deterministic (key-sorted) order.
type kvPair struct{ K, V string }

// runtimeWire is android.RuntimeState with its map flattened to sorted
// pairs so gob output is byte-deterministic.
type runtimeWire struct {
	Activities   []android.ActivitySnapshot
	SavedState   []kvPair
	Connectivity []string
	Receivers    []string
}

func runtimeToWire(st android.RuntimeState) runtimeWire {
	w := runtimeWire{
		Activities:   st.Activities,
		Connectivity: st.Connectivity,
		Receivers:    st.Receivers,
	}
	if len(st.SavedState) > 0 {
		w.SavedState = make([]kvPair, 0, len(st.SavedState))
		for k, v := range st.SavedState {
			w.SavedState = append(w.SavedState, kvPair{K: k, V: v})
		}
		sort.Slice(w.SavedState, func(i, j int) bool { return w.SavedState[i].K < w.SavedState[j].K })
	}
	return w
}

func runtimeFromWire(w runtimeWire) android.RuntimeState {
	st := android.RuntimeState{
		Activities:   w.Activities,
		Connectivity: w.Connectivity,
		Receivers:    w.Receivers,
	}
	if len(w.SavedState) > 0 {
		st.SavedState = make(map[string]string, len(w.SavedState))
		for _, kv := range w.SavedState {
			st.SavedState[kv.K] = kv.V
		}
	}
	return st
}

// Pools for the flate hot path. A flate.Writer carries ~1 MB of window
// state; re-allocating it per segment shard is what the seed's profile was
// dominated by.
var (
	flateWriterPool = sync.Pool{New: func() any {
		w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level
		}
		return w
	}}
	flateReaderPool = sync.Pool{New: func() any {
		return flate.NewReader(bytes.NewReader(nil))
	}}
	bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// deflate compresses raw with a pooled writer, returning a fresh slice.
// On any error the writer is dropped, not recycled: a flate.Writer that
// failed a Write or Close may hold broken window/stream state, and a
// sync.Pool must only ever contain known-good objects. The scratch
// buffer is plain bytes and is always safe to recycle (it is Reset on
// every Get).
func deflate(raw []byte) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	w := flateWriterPool.Get().(*flate.Writer)
	w.Reset(buf)
	if _, err := w.Write(raw); err != nil {
		return nil, err // drop w: state unknown after a failed Write
	}
	if err := w.Close(); err != nil {
		return nil, err // drop w: state unknown after a failed Close
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	flateWriterPool.Put(w)
	return out, nil
}

// inflate decompresses one block with a pooled reader. Error paths drop
// the reader instead of recycling it: after a failed Reset, ReadAll, or
// Close the decompressor's internal state is undefined, and returning it
// to the pool would hand a broken reader to an unrelated future decode
// (the bug this comment is the regression fence for — see
// TestInflateTruncatedDoesNotPoisonPool).
func inflate(comp []byte) ([]byte, error) {
	r := flateReaderPool.Get().(io.ReadCloser)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return nil, err // drop r
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err // drop r
	}
	if err := r.Close(); err != nil {
		return nil, err // drop r
	}
	flateReaderPool.Put(r)
	return raw, nil
}

// Marshal serializes the image metadata and compresses it into the
// container revision the image selects: FXC4 when it carries a
// LogAnchor, else FXC3 with ContentDigests, else FXC2. The returned wire
// size excludes the memory payload, which the migration pipeline
// accounts separately via CompressedPayloadBytes.
func (img *Image) Marshal() ([]byte, error) {
	// Shard the segment table into fixed-size runs.
	var shards [][]kernel.MemSegment
	for off := 0; off < len(img.Segments); off += marshalShardSegs {
		end := off + marshalShardSegs
		if end > len(img.Segments) {
			end = len(img.Segments)
		}
		shards = append(shards, img.Segments[off:end])
	}
	core := imageCore{
		Pkg:             img.Pkg,
		Spec:            img.Spec,
		HomeDevice:      img.HomeDevice,
		CheckpointTime:  img.CheckpointTime,
		VPID:            img.VPID,
		FDs:             img.FDs,
		Handles:         img.Handles,
		Ashmem:          img.Ashmem,
		Runtime:         runtimeToWire(img.Runtime),
		RecordLog:       img.RecordLog,
		HomeVolumeSteps: img.HomeVolumeSteps,
		SegmentShards:   len(shards),
	}
	coreBuf := bufPool.Get().(*bytes.Buffer)
	coreBuf.Reset()
	if err := gob.NewEncoder(coreBuf).Encode(&core); err != nil {
		bufPool.Put(coreBuf)
		return nil, fmt.Errorf("cria: encoding image core: %w", err)
	}
	coreRaw := coreBuf.Bytes()
	nCoreBlocks := (len(coreRaw) + marshalCoreBlockBytes - 1) / marshalCoreBlockBytes
	if nCoreBlocks == 0 {
		nCoreBlocks = 1 // gob of a struct is never empty, but keep the format total
	}

	// One job per core block and per segment shard; a GOMAXPROCS-bounded
	// worker pool fills indexed slots so assembly order — and therefore
	// the output bytes — is deterministic at any parallelism.
	digests := img.ContentDigests
	type slot struct {
		comp []byte
		sum  [sha256.Size]byte
		err  error
	}
	slots := make([]slot, nCoreBlocks+len(shards))
	jobs := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(slots) {
		workers = len(slots)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if i < nCoreBlocks {
					lo := i * marshalCoreBlockBytes
					hi := lo + marshalCoreBlockBytes
					if hi > len(coreRaw) {
						hi = len(coreRaw)
					}
					if digests {
						slots[i].sum = sha256.Sum256(coreRaw[lo:hi])
					}
					slots[i].comp, slots[i].err = deflate(coreRaw[lo:hi])
					continue
				}
				shard := shards[i-nCoreBlocks]
				sb := bufPool.Get().(*bytes.Buffer)
				sb.Reset()
				if err := gob.NewEncoder(sb).Encode(shard); err != nil {
					slots[i].err = err
					bufPool.Put(sb)
					continue
				}
				if digests {
					slots[i].sum = sha256.Sum256(sb.Bytes())
				}
				slots[i].comp, slots[i].err = deflate(sb.Bytes())
				bufPool.Put(sb)
			}
		}()
	}
	for i := range slots {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	bufPool.Put(coreBuf) // coreRaw no longer referenced past this point

	out := make([]byte, 0, 4+16+len(img.LogAnchor))
	magic := marshalMagic
	if digests {
		magic = marshalMagicV3
	}
	if len(img.LogAnchor) > 0 {
		magic = marshalMagicV4
	}
	out = append(out, magic...)
	if len(img.LogAnchor) > 0 {
		var flags uint64
		if digests {
			flags |= 1
		}
		out = binary.AppendUvarint(out, flags)
		out = binary.AppendUvarint(out, uint64(len(img.LogAnchor)))
		out = append(out, img.LogAnchor...)
	}
	out = binary.AppendUvarint(out, uint64(nCoreBlocks))
	out = binary.AppendUvarint(out, uint64(len(shards)))
	for i := range slots {
		if slots[i].err != nil {
			return nil, fmt.Errorf("cria: compressing image block %d: %w", i, slots[i].err)
		}
		out = binary.AppendUvarint(out, uint64(len(slots[i].comp)))
		out = binary.LittleEndian.AppendUint32(out, blockChecksum(slots[i].comp))
		if digests {
			out = append(out, slots[i].sum[:]...)
		}
		out = append(out, slots[i].comp...)
	}
	return out, nil
}

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// most CPUs) used for per-block container checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockChecksum is the integrity checksum of one compressed container
// block, computed over the compressed bytes (so corruption is caught
// before any DEFLATE state machine runs).
func blockChecksum(comp []byte) uint32 {
	return crc32.Checksum(comp, crcTable)
}

// ErrChecksum reports a container block whose CRC32 does not match its
// bytes — the image was corrupted in transit. The migration retry path
// matches on it to re-request the damaged chunk.
var ErrChecksum = errors.New("cria: image block checksum mismatch")

// ErrDigest reports an FXC3 container block whose decompressed bytes do
// not hash to the SHA-256 digest the container carries — the content
// identity lied. The delta-migration cache path matches on it to treat a
// poisoned cache entry as a chunk-corruption fault and re-fetch.
var ErrDigest = errors.New("cria: image block content digest mismatch")

// Unmarshal decodes an image produced by Marshal, verifying every
// container block's CRC32 before inflating (checksum mismatches return
// an error wrapping ErrChecksum) and, for FXC3 containers and digested
// FXC4 containers, the SHA-256 content digest after inflating
// (mismatches wrap ErrDigest). Input that does not start with the FXC2,
// FXC3 or FXC4 magic is an error.
func Unmarshal(data []byte) (*Image, error) {
	if len(data) < len(marshalMagic) {
		return nil, fmt.Errorf("cria: %d-byte input is shorter than the container magic", len(data))
	}
	var withDigest bool
	var anchor []byte
	rest := data[len(marshalMagic):]
	switch string(data[:len(marshalMagic)]) {
	case marshalMagicV4:
		flags, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("cria: corrupt image header (anchor flags)")
		}
		rest = rest[n:]
		withDigest = flags&1 != 0
		alen, n := binary.Uvarint(rest)
		if n <= 0 || alen > uint64(len(rest)-n) {
			return nil, fmt.Errorf("cria: corrupt image header (anchor length)")
		}
		rest = rest[n:]
		anchor = append([]byte(nil), rest[:alen]...)
		rest = rest[alen:]
	case marshalMagicV3:
		withDigest = true
	case marshalMagic:
	default:
		return nil, fmt.Errorf("cria: unknown image container magic %q", data[:len(marshalMagic)])
	}
	nCore, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("cria: corrupt image header (core block count)")
	}
	rest = rest[n:]
	nShards, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("cria: corrupt image header (shard count)")
	}
	rest = rest[n:]

	blockIdx := -1
	nextBlock := func() ([]byte, error) {
		blockIdx++
		ln, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("cria: corrupt image block length")
		}
		rest = rest[n:]
		if len(rest) < 4 {
			return nil, fmt.Errorf("cria: truncated image block checksum")
		}
		want := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		var wantSum [sha256.Size]byte
		if withDigest {
			if len(rest) < sha256.Size {
				return nil, fmt.Errorf("cria: truncated image block digest")
			}
			copy(wantSum[:], rest[:sha256.Size])
			rest = rest[sha256.Size:]
		}
		if ln > uint64(len(rest)) {
			return nil, fmt.Errorf("cria: corrupt image block length")
		}
		block := rest[:ln]
		rest = rest[ln:]
		if blockChecksum(block) != want {
			return nil, fmt.Errorf("%w (block %d)", ErrChecksum, blockIdx)
		}
		raw, err := inflate(block)
		if err != nil {
			return nil, err
		}
		if withDigest && sha256.Sum256(raw) != wantSum {
			return nil, fmt.Errorf("%w (block %d)", ErrDigest, blockIdx)
		}
		return raw, nil
	}

	var coreRaw []byte
	for i := uint64(0); i < nCore; i++ {
		raw, err := nextBlock()
		if err != nil {
			return nil, fmt.Errorf("cria: decompressing image core: %w", err)
		}
		coreRaw = append(coreRaw, raw...)
	}
	var core imageCore
	if err := gob.NewDecoder(bytes.NewReader(coreRaw)).Decode(&core); err != nil {
		return nil, fmt.Errorf("cria: decoding image core: %w", err)
	}
	if uint64(core.SegmentShards) != nShards {
		return nil, fmt.Errorf("cria: image shard count mismatch (header %d, core %d)", nShards, core.SegmentShards)
	}
	img := &Image{
		Pkg:             core.Pkg,
		Spec:            core.Spec,
		HomeDevice:      core.HomeDevice,
		CheckpointTime:  core.CheckpointTime,
		VPID:            core.VPID,
		FDs:             core.FDs,
		Handles:         core.Handles,
		Ashmem:          core.Ashmem,
		Runtime:         runtimeFromWire(core.Runtime),
		RecordLog:       core.RecordLog,
		LogAnchor:       anchor,
		ContentDigests:  withDigest,
		HomeVolumeSteps: core.HomeVolumeSteps,
	}
	for i := uint64(0); i < nShards; i++ {
		raw, err := nextBlock()
		if err != nil {
			return nil, fmt.Errorf("cria: decompressing segment shard %d: %w", i, err)
		}
		var shard []kernel.MemSegment
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&shard); err != nil {
			return nil, fmt.Errorf("cria: decoding segment shard %d: %w", i, err)
		}
		img.Segments = append(img.Segments, shard...)
	}
	return img, nil
}

// WireBytes is the image's total transfer size given its Marshal output
// meta: compressed metadata + compressed memory payload + record log.
func (img *Image) WireBytes(meta []byte) int64 {
	return int64(len(meta)) + img.CompressedPayloadBytes() + int64(len(img.RecordLog))
}
