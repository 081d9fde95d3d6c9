package cria_test

import (
	"testing"

	"flux/internal/cria"
)

// TestCodecAllocs pins what marshalling and decoding one real
// checkpoint (1,020 container bytes) allocate once the pools are warm.
// The gob encoders and decoders come from per-type pools that have
// already handled the type definitions, the flate state and the block
// buffers from theirs, so a call allocates the container, the decoded
// image and the worker hand-off, not a compiled gob engine. A GC that
// empties the pools mid-run costs one new set of codecs over the run,
// at most the margin below; re-pin only for a deliberate change.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes how many objects a call allocates")
	}
	const runs, margin = 500, 2
	img := checkpointImage(t)
	wire, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		pinned float64
		call   func() error
	}{
		{"Marshal", 19, func() error { _, err := img.Marshal(); return err }},
		{"Unmarshal", 72, func() error { _, err := cria.Unmarshal(wire); return err }},
	} {
		if err := tc.call(); err != nil { // warm the pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs < tc.pinned || allocs > tc.pinned+margin {
			t.Errorf("%s allocated %.0f objects, pinned at %.0f (+%d for a GC emptying the pools)", tc.name, allocs, tc.pinned, margin)
		}
	}
}
