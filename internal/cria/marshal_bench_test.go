package cria_test

import (
	"fmt"
	"testing"

	"flux/internal/android"
	"flux/internal/cria"
	"flux/internal/kernel"
)

// benchImage builds a synthetic image big enough to exercise the parallel
// marshal path: a multi-shard segment table plus a record log, roughly the
// shape of a heavyweight game checkpoint.
func benchImage(segs int) *cria.Image {
	img := &cria.Image{
		Pkg:        "com.example.bench",
		Spec:       android.AppSpec{Package: "com.example.bench", HeapBytes: 96 << 20},
		HomeDevice: "bench-home",
		VPID:       1,
		Runtime: android.RuntimeState{
			SavedState: map[string]string{"level": "42", "score": "123456", "boss": "down"},
		},
		RecordLog:       make([]byte, 64<<10),
		HomeVolumeSteps: 15,
	}
	for i := 0; i < segs; i++ {
		img.Segments = append(img.Segments, kernel.MemSegment{
			Name:    fmt.Sprintf("/proc/self/maps/%06x", i),
			Size:    int64(64<<10 + i%4096),
			Entropy: float64(i%100) / 100,
		})
	}
	return img
}

// BenchmarkImageMarshal measures the full serialization: gob encode +
// parallel DEFLATE of core blocks and segment shards. Run with -cpu 1,4
// to see the worker-pool scaling; ReportAllocs tracks the sync.Pool
// reuse of flate writers and scratch buffers.
func BenchmarkImageMarshal(b *testing.B) {
	img := benchImage(2048)                  // 8 shards of 256 segments
	if _, err := img.Marshal(); err != nil { // warm pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageChunks measures chunk-partition cost at the pipeline's
// default chunk size (the metadata is marshalled once, outside the loop,
// so this is the pure partitioning arithmetic).
func BenchmarkImageChunks(b *testing.B) {
	img := benchImage(2048)
	meta, err := img.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks, err := img.Chunks(meta, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		if len(chunks) == 0 {
			b.Fatal("no chunks")
		}
	}
}
