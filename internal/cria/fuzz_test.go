package cria_test

// Robustness tests for cria.Unmarshal: arbitrary truncations and bit
// flips of FXC2, FXC3 and FXC4 containers must return an error or a
// valid image — never panic. The migration fault model
// deliberately feeds Unmarshal corrupted bytes (chunk corruption on a
// flaky link), so the decoder's failure mode is part of the recovery
// contract.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"flux/internal/android"
	"flux/internal/cria"
	"flux/internal/kernel"
)

// fuzzImageBytes builds one valid container for mutation: FXC2 by
// default, FXC3 with content digests, FXC4 with a record-log anchor.
func fuzzImageBytes(tb testing.TB, digests bool, anchor []byte) []byte {
	tb.Helper()
	img := &cria.Image{
		Pkg:  "com.example.fuzz",
		Spec: android.AppSpec{Package: "com.example.fuzz", Label: "Fuzz"},
		Segments: []kernel.MemSegment{
			{Name: "heap", Size: 200_000, Entropy: 0.5},
			{Name: "tex", Size: 77_000, Entropy: 0.3},
		},
		Runtime:        android.RuntimeState{SavedState: map[string]string{"a": "1", "b": "2"}},
		RecordLog:      []byte("fuzz-record-log"),
		LogAnchor:      anchor,
		ContentDigests: digests,
	}
	data, err := img.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// containers is one valid image per container revision Unmarshal
// accepts, keyed by its magic.
func containers(tb testing.TB) map[string][]byte {
	tb.Helper()
	return map[string][]byte{
		"FXC2": fuzzImageBytes(tb, false, nil),
		"FXC3": fuzzImageBytes(tb, true, nil),
		"FXC4": fuzzImageBytes(tb, true, []byte("fuzz-anchor")),
	}
}

// FuzzUnmarshal: no input may panic the decoder. Valid seeds come from
// all three container revisions; the fuzzer mutates from there.
func FuzzUnmarshal(f *testing.F) {
	for _, data := range containers(f) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("FXC2"))
	f.Add([]byte("FXC4\x01\xff"))
	f.Add([]byte("FXC2\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte{0xff, 0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := cria.Unmarshal(data)
		if err == nil && img == nil {
			t.Error("nil image with nil error")
		}
	})
}

// TestUnmarshalTruncationsNeverPanic: every prefix of a valid container
// errors cleanly. A full container decodes; any strict prefix must fail —
// the formats are not self-delimiting early.
func TestUnmarshalTruncationsNeverPanic(t *testing.T) {
	for name, data := range containers(t) {
		if got := string(data[:4]); got != name {
			t.Fatalf("%s seed marshals as %q", name, got)
		}
		if _, err := cria.Unmarshal(data); err != nil {
			t.Fatalf("%s: pristine input failed: %v", name, err)
		}
		// Exhaustive near the header, sampled across the body.
		step := 1
		if len(data) > 512 {
			step = len(data) / 256
		}
		for cut := 0; cut < len(data); cut += step {
			if _, err := cria.Unmarshal(data[:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d decoded cleanly", name, cut, len(data))
			}
		}
	}
}

// TestUnmarshalBitFlipsErrorNeverPanic: random single-bit flips. For
// FXC2, any flip must produce an error (header framing or ErrChecksum);
// bit flips can never silently decode, because every payload byte is
// covered by a block CRC and every header byte by framing validation.
// In FXC4, which no CRC covers ahead of the blocks, every flip of the
// flags byte must error too.
func TestUnmarshalBitFlipsErrorNeverPanic(t *testing.T) {
	for _, digests := range []bool{false, true} {
		data := fuzzImageBytes(t, digests, []byte("fuzz-anchor"))
		const flagsAt = 4 // the flags word follows the magic
		if want := map[bool]byte{false: 0, true: 1}[digests]; data[flagsAt] != want {
			t.Fatalf("digests=%v: flags byte %#x, want %#x", digests, data[flagsAt], want)
		}
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(data)
			mut[flagsAt] ^= 1 << bit
			if _, err := cria.Unmarshal(mut); err == nil {
				t.Errorf("digests=%v: flipping bit %d of the FXC4 flags byte decoded cleanly", digests, bit)
			}
		}
	}

	data := fuzzImageBytes(t, false, nil)
	rng := rand.New(rand.NewSource(1))
	var checksumHits int
	for i := 0; i < 400; i++ {
		mut := bytes.Clone(data)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << uint(rng.Intn(8))
		img, err := cria.Unmarshal(mut)
		if err == nil {
			// A flip inside the magic yields an unknown magic, which
			// must error — reaching here means corrupt bytes decoded
			// silently.
			t.Errorf("bit flip at %d decoded cleanly (img=%v)", pos, img != nil)
			continue
		}
		if errors.Is(err, cria.ErrChecksum) {
			checksumHits++
		}
	}
	if checksumHits == 0 {
		t.Error("no bit flip was caught by the CRC layer; payload coverage looks broken")
	}
}

// TestUnmarshalRefusesTrailingBytes: in every revision, any byte after
// the last block is refused.
func TestUnmarshalRefusesTrailingBytes(t *testing.T) {
	for name, data := range containers(t) {
		for _, tail := range [][]byte{{0}, {0xff}, data[len(data)-16:], data} {
			mut := append(bytes.Clone(data), tail...)
			if _, err := cria.Unmarshal(mut); err == nil {
				t.Errorf("%s: %d bytes after the last block decoded cleanly", name, len(tail))
			}
		}
	}
}

// TestUnmarshalRefusesNonCanonicalHeader: an FXC4 container with an
// empty anchor, and a header varint padded past its minimal encoding,
// are refused. Marshal writes neither.
func TestUnmarshalRefusesNonCanonicalHeader(t *testing.T) {
	data := fuzzImageBytes(t, true, []byte("fuzz-anchor"))
	const flagsAt, anchorLenAt = 4, 5
	if data[anchorLenAt] != byte(len("fuzz-anchor")) {
		t.Fatalf("anchor length byte %#x", data[anchorLenAt])
	}
	anchorEnd := anchorLenAt + 1 + len("fuzz-anchor")
	// pad re-encodes the varint at offset at one byte longer than its
	// minimal encoding, keeping its value.
	pad := func(at int) []byte {
		_, n := binary.Uvarint(data[at:])
		v := bytes.Clone(data[at : at+n])
		v[n-1] |= 0x80
		return bytes.Join([][]byte{data[:at], v, {0}, data[at+n:]}, nil)
	}
	for name, mut := range map[string][]byte{
		"empty anchor":        bytes.Join([][]byte{data[:anchorLenAt], {0}, data[anchorEnd:]}, nil),
		"padded flags":        pad(flagsAt),
		"padded anchor len":   pad(anchorLenAt),
		"padded core count":   pad(anchorEnd),
		"padded shard count":  pad(anchorEnd + 1),
		"padded block length": pad(anchorEnd + 2),
	} {
		if _, err := cria.Unmarshal(mut); err == nil {
			t.Errorf("%s decoded cleanly", name)
		}
	}
}
