package cria_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"flux/internal/android"
	"flux/internal/cria"
	"flux/internal/device"
	"flux/internal/kernel"
)

// checkpointImage builds a real image from a prepped app.
func checkpointImage(t *testing.T) *cria.Image {
	t.Helper()
	dev, err := device.New(device.Nexus4("chunks"))
	if err != nil {
		t.Fatal(err)
	}
	app := prepped(t, dev)
	img, err := cria.Checkpoint(app, opts(dev))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// smallImage builds a synthetic image a few KB across, so degenerate
// 1-byte chunking stays cheap.
func smallImage() *cria.Image {
	return &cria.Image{
		Pkg:  "com.example.small",
		Spec: android.AppSpec{Package: "com.example.small"},
		Segments: []kernel.MemSegment{
			{Name: "heap", Size: 3000, Entropy: 0.5},
			{Name: "stack", Size: 1, Entropy: 0.9}, // 1-byte segment
			{Name: "zero", Size: 0},                // dropped from the stream
			{Name: "tex", Size: 4097, Entropy: 0.31},
		},
		Runtime:   android.RuntimeState{SavedState: map[string]string{"k": "v"}},
		RecordLog: []byte("0123456789abcdef"),
	}
}

// TestChunksInvariants pins the exactness contract the streaming pipeline
// relies on: for ANY chunk size — including degenerate 1-byte chunks —
// the chunk sums reproduce the sequential byte accounting byte-for-byte.
// Tiny chunk sizes run against a small synthetic image (a real image at 1
// byte/chunk means millions of chunks); realistic sizes run against a
// real checkpoint.
func TestChunksInvariants(t *testing.T) {
	real := checkpointImage(t)
	cases := []struct {
		name   string
		img    *cria.Image
		chunks []int64
	}{
		{"synthetic", smallImage(), []int64{1, 2, 7, 127, 1 << 10, 1 << 30}},
		{"checkpoint", real, []int64{1 << 10, 64 << 10, 256 << 10, 1 << 30}},
	}
	for _, tc := range cases {
		img := tc.img
		meta, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wire := img.WireBytes(meta)
		for _, cb := range tc.chunks {
			t.Run(fmt.Sprintf("%s/chunk=%d", tc.name, cb), func(t *testing.T) {
				chunks, err := img.Chunks(meta, cb)
				if err != nil {
					t.Fatal(err)
				}
				if len(chunks) == 0 {
					t.Fatal("no chunks")
				}
				if cap(chunks) != len(chunks) {
					t.Errorf("Chunks sized its slice for %d chunks, cut %d", cap(chunks), len(chunks))
				}
				var sumWire, segWire, segRaw, metaWire, logRaw int64
				phase := cria.ChunkMetadata
				for i, c := range chunks {
					if c.Index != i {
						t.Errorf("chunk %d has Index %d", i, c.Index)
					}
					if c.Raw < 0 || c.Wire < 0 {
						t.Errorf("chunk %d has negative sizes: raw %d wire %d", i, c.Raw, c.Wire)
					}
					if c.Raw > cb {
						t.Errorf("chunk %d raw %d exceeds chunk size %d", i, c.Raw, cb)
					}
					if c.Kind < phase {
						t.Errorf("chunk %d kind %s out of order (after %s)", i, c.Kind, phase)
					}
					phase = c.Kind
					sumWire += c.Wire
					switch c.Kind {
					case cria.ChunkSegment:
						segWire += c.Wire
						segRaw += c.Raw
						if c.Segment < 0 || c.Segment >= len(img.Segments) {
							t.Errorf("chunk %d references segment %d of %d", i, c.Segment, len(img.Segments))
						}
					case cria.ChunkMetadata:
						metaWire += c.Wire
						if c.Raw != c.Wire {
							t.Errorf("metadata chunk %d: raw %d != wire %d", i, c.Raw, c.Wire)
						}
					case cria.ChunkRecordLog:
						logRaw += c.Raw
					}
				}
				if sumWire != wire {
					t.Errorf("Σ wire = %d, want WireBytes %d", sumWire, wire)
				}
				if segWire != img.CompressedPayloadBytes() {
					t.Errorf("Σ segment wire = %d, want CompressedPayloadBytes %d", segWire, img.CompressedPayloadBytes())
				}
				if segRaw != img.PayloadBytes() {
					t.Errorf("Σ segment raw = %d, want PayloadBytes %d", segRaw, img.PayloadBytes())
				}
				if metaWire != int64(len(meta)) {
					t.Errorf("Σ metadata wire = %d, want marshal size %d", metaWire, len(meta))
				}
				if logRaw != int64(len(img.RecordLog)) {
					t.Errorf("Σ record-log raw = %d, want %d", logRaw, len(img.RecordLog))
				}
			})
		}
	}
}

// TestChunkDigestsPinned pins every Digest and PrevDigest Chunks
// computes for a synthetic image with rewritten segments, one of them
// with a name too long for segmentChunkDigest's stack buffer: the
// delta cache keys on these bytes, so they may move only together with
// the committed commuter baselines.
func TestChunkDigestsPinned(t *testing.T) {
	const pinned = "324cf863d6bc34b4b86ed3d45587dbd105b6cc0a0a0d69cb5fdc927b23ee2e2b"
	img := smallImage()
	img.Segments[0].Gen, img.Segments[0].DirtyFrac = 3, 0.25
	img.Segments = append(img.Segments, kernel.MemSegment{
		Name: "surface:" + strings.Repeat("com.example.LongActivityName", 10),
		Kind: kernel.SegGraphics, Size: 2500, Entropy: 0.95, Gen: 1, DirtyFrac: 0.5,
	})
	chunks, err := img.Chunks([]byte("fixed metadata bytes"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c.Digest[:])
		h.Write(c.PrevDigest[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Errorf("chunk digests hash to %s, pinned %s", got, pinned)
	}
}

func TestChunksRejectsBadSize(t *testing.T) {
	img := checkpointImage(t)
	meta, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, cb := range []int64{0, -1, -1 << 20} {
		if _, err := img.Chunks(meta, cb); err == nil {
			t.Errorf("Chunks(%d) accepted", cb)
		}
	}
}

// TestMarshalDeterministic: the parallel worker pool must not leak
// scheduling order into the output bytes.
func TestMarshalDeterministic(t *testing.T) {
	img := checkpointImage(t)
	first, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("marshal %d produced different bytes (%d vs %d)", i, len(first), len(again))
		}
	}
}

// TestContainerGolden pins the container bytes of a real checkpoint in
// every revision Marshal writes, and that decoding and re-encoding
// reproduces them. A digest change here is a wire-format change: it
// moves every TransferredBytes figure downstream.
func TestContainerGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		digests bool
		anchor  []byte
		sha256  string
	}{
		{"FXC2", false, nil, "bf1e1f10f250ec9262e6a40d6d7d9ee86d633f8f8e2b222da90f4f0b02b4d0f9"},
		{"FXC3", true, nil, "ce4f3793c7ba26b5bb92fe1cd96d5b78c6381dbf88f21dafde81605cc6c41531"},
		{"FXC4", false, []byte("anchor"), "8dc9d5d93edd8114357cf521b51907cbb7551db57b3d725fd03b083a9d7a7f2b"},
		{"FXC4+digests", true, []byte("anchor"), "ed7df48cec81ee1690f3ed38ba7d0d7ec35a2a01563632150d3f70983b4990ec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := checkpointImage(t)
			img.ContentDigests = tc.digests
			img.LogAnchor = tc.anchor
			wire, err := img.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256.Sum256(wire); hex.EncodeToString(got[:]) != tc.sha256 {
				t.Errorf("container sha256 %x, want %s", got, tc.sha256)
			}
			back, err := cria.Unmarshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			again, err := back.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, wire) {
				t.Errorf("Marshal(Unmarshal(b)) differs from b (%d vs %d bytes)", len(again), len(wire))
			}
		})
	}
}

// TestParallelMarshalRoundTrip: the FXC2 container survives its own
// decode, including the sorted SavedState map and multi-shard segment
// tables (more segments than one shard holds).
func TestParallelMarshalRoundTrip(t *testing.T) {
	img := &cria.Image{
		Pkg:        "com.example.shards",
		Spec:       android.AppSpec{Package: "com.example.shards"},
		HomeDevice: "home",
		VPID:       7,
		Runtime: android.RuntimeState{
			SavedState: map[string]string{"z": "26", "a": "1", "m": "13"},
		},
		RecordLog:       []byte("0123456789"),
		HomeVolumeSteps: 30,
	}
	for i := 0; i < 1000; i++ { // > marshalShardSegs → multiple shards
		img.Segments = append(img.Segments, kernel.MemSegment{
			Name:    fmt.Sprintf("seg-%04d", i),
			Size:    int64(1024 + i),
			Entropy: float64(i%10) / 10,
		})
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := cria.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Pkg != img.Pkg || back.VPID != img.VPID || back.HomeVolumeSteps != img.HomeVolumeSteps {
		t.Errorf("core fields lost: %+v", back)
	}
	if len(back.Segments) != len(img.Segments) {
		t.Fatalf("segments: got %d, want %d", len(back.Segments), len(img.Segments))
	}
	for i := range img.Segments {
		if back.Segments[i] != img.Segments[i] {
			t.Fatalf("segment %d differs: %+v vs %+v", i, back.Segments[i], img.Segments[i])
		}
	}
	if len(back.Runtime.SavedState) != 3 || back.Runtime.SavedState["m"] != "13" {
		t.Errorf("saved state lost: %+v", back.Runtime.SavedState)
	}
	if !bytes.Equal(back.RecordLog, img.RecordLog) {
		t.Errorf("record log lost")
	}
}

func TestChunkKindStrings(t *testing.T) {
	want := map[cria.ChunkKind]string{
		cria.ChunkMetadata:  "metadata",
		cria.ChunkRecordLog: "record-log",
		cria.ChunkSegment:   "segment",
		cria.ChunkDelta:     "delta",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if cria.ChunkKind(99).String() != "chunkkind(99)" {
		t.Errorf("unknown kind: %q", cria.ChunkKind(99).String())
	}
}
