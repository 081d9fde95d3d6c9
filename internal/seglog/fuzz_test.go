package seglog

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzLoadSegment throws arbitrary bytes at Load and requires (a) no
// panic, and (b) that every accepted input is exactly the stream
// Marshal writes for the payloads it decoded.
func FuzzLoadSegment(f *testing.F) {
	// Seed corpus: valid streams of a few shapes plus near-miss mutants.
	f.Add(Marshal(nil))
	small := Marshal([][]byte{[]byte("alpha"), []byte("beta")})
	f.Add(small)
	var many [][]byte
	for i := 0; i < SegmentLeaves+3; i++ {
		many = append(many, []byte{byte(i)})
	}
	f.Add(Marshal(many))
	old, err := hex.DecodeString(prunedStream)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), Version))
	f.Add(append([]byte(Magic), Version+1))
	f.Add([]byte("FLXL\x01junk")) // legacy record magic, not ours
	f.Add(small[:len(small)-3])
	f.Add(append(small[:len(small):len(small)], 0))
	f.Add(Marshal([][]byte{{}, []byte("x")}))

	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := Load(data)
		if err != nil {
			return
		}
		if !bytes.Equal(Marshal(ps), data) {
			t.Fatalf("accepted a stream Marshal does not write:\n%x", data)
		}
	})
}
