package cria

// White-box integrity tests for the FXC2 container: per-block CRC32
// verification, refusal of retired formats, and the flate pool's
// error-path hygiene (broken readers must be dropped, never recycled).

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"testing"

	"flux/internal/android"
	"flux/internal/kernel"
)

func integImage() *Image {
	return &Image{
		Pkg:  "com.example.integrity",
		Spec: android.AppSpec{Package: "com.example.integrity"},
		Segments: []kernel.MemSegment{
			{Name: "heap", Size: 300_000, Entropy: 0.5},
			{Name: "tex", Size: 120_000, Entropy: 0.31},
		},
		Runtime:   android.RuntimeState{SavedState: map[string]string{"k": "v", "x": "y"}},
		RecordLog: []byte("record-log-payload-0123456789"),
	}
}

// parseContainer splits a marshalled container into its header values
// and framed blocks ([len][crc][bytes] triples).
type containerBlock struct {
	crc  uint32
	comp []byte
	off  int // payload offset within the container bytes
}

func parseContainer(t *testing.T, data []byte) (nCore, nShards uint64, blocks []containerBlock) {
	t.Helper()
	rest := data[len(marshalMagic):]
	var n int
	nCore, n = binary.Uvarint(rest)
	if n <= 0 {
		t.Fatal("bad core count")
	}
	rest = rest[n:]
	nShards, n = binary.Uvarint(rest)
	if n <= 0 {
		t.Fatal("bad shard count")
	}
	rest = rest[n:]
	off := len(data) - len(rest)
	for len(rest) > 0 {
		ln, n := binary.Uvarint(rest)
		if n <= 0 {
			t.Fatal("bad block length")
		}
		rest = rest[n:]
		off += n
		b := containerBlock{crc: binary.LittleEndian.Uint32(rest[:4])}
		rest = rest[4:]
		off += 4
		b.comp = rest[:ln]
		b.off = off
		rest = rest[ln:]
		off += int(ln)
		blocks = append(blocks, b)
	}
	return nCore, nShards, blocks
}

// TestContainerChecksumsPresent: every FXC2 block carries a CRC32 that
// matches its compressed bytes.
func TestContainerChecksumsPresent(t *testing.T) {
	data, err := integImage().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:4]) != marshalMagic {
		t.Fatalf("magic = %q, want %q", data[:4], marshalMagic)
	}
	nCore, nShards, blocks := parseContainer(t, data)
	if uint64(len(blocks)) != nCore+nShards {
		t.Fatalf("%d blocks framed, header promises %d", len(blocks), nCore+nShards)
	}
	for i, b := range blocks {
		if got := blockChecksum(b.comp); got != b.crc {
			t.Errorf("block %d: stored crc %08x != computed %08x", i, b.crc, got)
		}
	}
}

// TestUnmarshalDetectsBitFlip: flipping one payload bit anywhere in any
// block is caught by the CRC check and reported as ErrChecksum — before
// any DEFLATE or gob machinery sees the corrupt bytes.
func TestUnmarshalDetectsBitFlip(t *testing.T) {
	img := integImage()
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, _, blocks := parseContainer(t, data)
	for i, b := range blocks {
		if len(b.comp) == 0 {
			continue
		}
		mut := bytes.Clone(data)
		mut[b.off+len(b.comp)/2] ^= 0x40
		if _, err := Unmarshal(mut); !errors.Is(err, ErrChecksum) {
			t.Errorf("block %d: bit flip not caught by checksum (err=%v)", i, err)
		}
	}
}

// TestUnmarshalFXC1Legacy: the checksum-less version-1 container,
// which Marshal no longer writes, is refused even when it is
// well-formed.
func TestUnmarshalFXC1Legacy(t *testing.T) {
	data, err := integImage().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// The version-1 container was FXC2 without the per-block CRCs.
	nCore, nShards, blocks := parseContainer(t, data)
	v1 := []byte(marshalMagic[:3] + "1")
	v1 = binary.AppendUvarint(v1, nCore)
	v1 = binary.AppendUvarint(v1, nShards)
	for _, b := range blocks {
		v1 = binary.AppendUvarint(v1, uint64(len(b.comp)))
		v1 = append(v1, b.comp...)
	}
	if _, err := Unmarshal(v1); err == nil {
		t.Error("version-1 container decoded; only FXC2/FXC3/FXC4 are accepted")
	}
}

// TestUnmarshalLegacyFormat: the seed's single gob+flate stream, which
// Marshal no longer writes, is refused even when it is well-formed.
func TestUnmarshalLegacyFormat(t *testing.T) {
	img := integImage()
	// The seed format was the whole Image as one gob stream behind one
	// DEFLATE stream.
	type seedImage struct {
		Pkg       string
		Segments  []kernel.MemSegment
		RecordLog []byte
	}
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(&seedImage{Pkg: img.Pkg, Segments: img.Segments, RecordLog: img.RecordLog}); err != nil {
		t.Fatal(err)
	}
	seed, err := deflate(raw.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Unmarshal(seed); err == nil {
		t.Error("seed gob+flate stream decoded; only FXC2/FXC3/FXC4 are accepted")
	}
}

// TestInflateTruncatedDoesNotPoisonPool is the regression fence for the
// pooled-reader bug: a reader that fails mid-decode must be dropped, so
// interleaved failing and succeeding decodes never observe a broken
// reader from the pool.
func TestInflateTruncatedDoesNotPoisonPool(t *testing.T) {
	raw := bytes.Repeat([]byte("integrity-pool-check-"), 512)
	comp, err := deflate(raw)
	if err != nil {
		t.Fatal(err)
	}
	truncated := comp[:len(comp)/2]
	for i := 0; i < 64; i++ {
		if _, err := inflate(truncated); err == nil {
			t.Fatal("truncated DEFLATE stream decoded cleanly")
		}
		got, err := inflate(comp)
		if err != nil {
			t.Fatalf("iteration %d: valid stream failed after a truncated decode: %v", i, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("iteration %d: round trip corrupted", i)
		}
	}
	// Garbage that fails at Reset/first-read must be equally harmless.
	garbage := []byte{0xff, 0xff, 0x00, 0x01, 0x02}
	for i := 0; i < 16; i++ {
		if _, err := inflate(garbage); err == nil {
			t.Fatal("garbage stream decoded cleanly")
		}
	}
	if got, err := inflate(comp); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("valid stream failed after garbage decodes: %v", err)
	}
}

// TestUnmarshalTruncatedChecksumHeader: cutting the container inside a
// block's CRC field errors cleanly.
func TestUnmarshalTruncatedChecksumHeader(t *testing.T) {
	data, err := integImage().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Header is magic + two uvarints; the next bytes are the first
	// block's length varint followed by its CRC. Cut mid-CRC.
	cut := len(marshalMagic) + 2 + 1 + 2
	if cut > len(data) {
		t.Skip("container smaller than synthetic cut point")
	}
	if _, err := Unmarshal(data[:cut]); err == nil {
		t.Error("truncated container decoded cleanly")
	}
}

// TestAnchoredContainerRoundTrip covers the FXC4 revision: an image
// carrying a record-log anchor marshals under the FXC4 magic, the
// anchor survives the round trip, and an anchor-free image still
// produces byte-identical FXC2/FXC3 output.
func TestAnchoredContainerRoundTrip(t *testing.T) {
	plain := integImage()
	plainWire, err := plain.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(plainWire[:4]) != marshalMagic {
		t.Fatalf("anchor-free image marshals as %q, want %q", plainWire[:4], marshalMagic)
	}

	for _, digests := range []bool{false, true} {
		img := integImage()
		img.ContentDigests = digests
		img.LogAnchor = []byte("opaque-anchor-wire-bytes")
		wire, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(wire[:4]) != marshalMagicV4 {
			t.Fatalf("anchored image marshals as %q, want %q", wire[:4], marshalMagicV4)
		}
		back, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("digests=%v: %v", digests, err)
		}
		if !bytes.Equal(back.LogAnchor, img.LogAnchor) {
			t.Errorf("digests=%v: anchor did not round-trip", digests)
		}
		if !bytes.Equal(back.RecordLog, img.RecordLog) {
			t.Errorf("digests=%v: record log did not round-trip", digests)
		}
		if len(back.Segments) != len(img.Segments) {
			t.Errorf("digests=%v: segments = %d, want %d", digests, len(back.Segments), len(img.Segments))
		}
		// Corrupting a block inside an FXC4 container is still caught by
		// the CRC layer.
		mut := bytes.Clone(wire)
		mut[len(mut)-3] ^= 0x40
		if _, err := Unmarshal(mut); err == nil {
			t.Errorf("digests=%v: corrupted FXC4 container decoded cleanly", digests)
		}
	}
}
