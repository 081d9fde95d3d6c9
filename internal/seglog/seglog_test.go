package seglog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
)

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("entry-%03d payload %d", i, i*i))
	}
	return out
}

// frameKinds lists the kind byte of every frame in a stream.
func frameKinds(t *testing.T, data []byte) []byte {
	t.Helper()
	var kinds []byte
	for off := headerSize; off < len(data); {
		kind, _, n, err := readFrame(data[off:])
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		kinds = append(kinds, kind)
		off += n
	}
	return kinds
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 127, 128, 129, 300} {
		want := payloads(n)
		data := Marshal(want)
		got, err := Load(data)
		if err != nil {
			t.Fatalf("n=%d: Load: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: loaded %d payloads", n, len(got))
		}
		for i, p := range got {
			if !bytes.Equal(p, want[i]) {
				t.Fatalf("n=%d: payload %d = %q, want %q", n, i, p, want[i])
			}
		}
		// Round-trip fixed point: re-marshalling the loaded payloads
		// must be byte-identical.
		if !bytes.Equal(Marshal(got), data) {
			t.Fatalf("n=%d: re-marshal not a fixed point", n)
		}
	}
}

// TestAutoSeal: a segment closes every SegmentLeaves leaves and the
// last one holds the remainder, in the anchor and in the stream.
func TestAutoSeal(t *testing.T) {
	ps := payloads(300)
	a := AnchorOf(ps)
	if a.Leaves != 300 || len(a.Roots) != 3 {
		t.Fatalf("anchor = %d leaves / %d roots, want 300 / 3", a.Leaves, len(a.Roots))
	}
	for i, want := range []uint32{128, 128, 44} {
		if a.Roots[i].Leaves != want {
			t.Errorf("segment %d covers %d leaves, want %d", i, a.Roots[i].Leaves, want)
		}
	}
	var seals []int // entries before each seal frame
	entries := 0
	for _, k := range frameKinds(t, Marshal(ps)) {
		switch k {
		case kindEntry:
			entries++
		case kindSeal:
			seals = append(seals, entries)
		}
	}
	if fmt.Sprint(seals) != "[128 256 300]" {
		t.Fatalf("seal frames after entries %v, want [128 256 300]", seals)
	}
}

// TestStreamGolden pins the stream and anchor bytes: the SHA-256 of
// Marshal and of the marshalled anchor for fixed payload lists. The
// hashes were computed with the earlier incremental encoder (append
// each payload, seal the tail), so the format has not moved.
func TestStreamGolden(t *testing.T) {
	golden := []struct {
		n              int
		stream, anchor string
	}{
		{0, "4220fa7f9be2b9d2ca178c78aa71224ab4b1aefe0c5cb584b085deff451c9150", "553f0aee91fbdc0e10f94d2fc5ef034515b87810daa658bdf69c4b53e8d535d0"},
		{1, "1575bcd58fbce01b7e95e50a5bdab58a3c7537293da474aa7e1cd95ad138a0ca", "bbe461c258f500faa6bdead4d9696b138a37527a74b9dc273fabae406c6ff54e"},
		{128, "88fc4a8a7aa737808ac92d94ccd70caca106b26b2a73015236df2fdc0ecc9bea", "de67c158655e3923434f866e2fec96c4edbe458cc6d222f69daa465d97fdf9eb"},
		{129, "708deaebec59418ebaf6e6d73c3dde4da63d6b21cf9df067897ac9b3b8bfe8f1", "fe1aec1703a27e4060b1d6879f4a7b8cdda3980e257c26e6d92981a5b46c3465"},
		{300, "0dbf3c25cb36d5f51f1436f6da220657dabcbd8984cbcf6b75eed86bb8db5d71", "338fed4b52b317b69c64952d04cca1fc4777895ca23177ef7ffa7ddbf3a02946"},
	}
	for _, g := range golden {
		ps := payloads(g.n)
		s := sha256.Sum256(Marshal(ps))
		a := sha256.Sum256(AnchorOf(ps).Marshal())
		if got := hex.EncodeToString(s[:]); got != g.stream {
			t.Errorf("n=%d: stream sha256 %s, want %s", g.n, got, g.stream)
		}
		if got := hex.EncodeToString(a[:]); got != g.anchor {
			t.Errorf("n=%d: anchor sha256 %s, want %s", g.n, got, g.anchor)
		}
	}
}

// prunedStream is a stream from the earlier format revision: entries
// "a", "bb", "ccc" with the second one pruned to a 0x02 frame carrying
// its leaf hash. An empty payload was also written this way.
const prunedStream = "464c584701000000020161716effc4000000210277e18e7b33b8bf1387f77061a4b113396bf92bf568f1ad090b68b7bf7382224a8cd83e3b00000004016363639fc0b7c8000000290300000000000000035925bc7d8ff4e63279131c634481e9cd4f7ac4fcb6c25dffc4abe076028ad78993ddaebf0000005a04464c5841010000000000000003c75e931db77f66f10d9f3b766287a0fdb729b56b7510280038677371a5099d9600000001000000035925bc7d8ff4e63279131c634481e9cd4f7ac4fcb6c25dffc4abe076028ad7895111e877e4988007"

// TestEmptyPayloadIsAnEntry: an empty payload is an entry frame with an
// empty body and loads back as an entry; a pruned frame is refused.
func TestEmptyPayloadIsAnEntry(t *testing.T) {
	ps := [][]byte{{}, []byte("x")}
	data := Marshal(ps)
	if kinds := frameKinds(t, data); !bytes.Equal(kinds, []byte{kindEntry, kindEntry, kindSeal, kindAnchor}) {
		t.Fatalf("frame kinds %x, want entry entry seal anchor", kinds)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got) != 2 || len(got[0]) != 0 || string(got[1]) != "x" {
		t.Fatalf("loaded %q", got)
	}
	if err := Verify(got, AnchorOf(ps)); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	old, err := hex.DecodeString(prunedStream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(old); err == nil {
		t.Fatal("a stream with a pruned frame loaded")
	}
}

func TestAnchorVerifyPayloads(t *testing.T) {
	ps := payloads(300)
	a := AnchorOf(ps)
	if err := Verify(ps, a); err != nil {
		t.Fatalf("Verify on honest log: %v", err)
	}
	// The count must match exactly: an entry appended after the anchor
	// was cut is refused.
	if err := Verify(append(ps[:300:300], []byte("later")), a); !errors.Is(err, ErrTampered) {
		t.Fatalf("Verify with an extra entry: %v", err)
	}
	// The anchor round-trips through its wire form.
	a2, err := ParseAnchor(a.Marshal())
	if err != nil {
		t.Fatalf("ParseAnchor: %v", err)
	}
	if err := Verify(ps, a2); err != nil {
		t.Fatalf("Verify after wire round-trip: %v", err)
	}
	// A wrong segment root is refused.
	a2.Roots[0].Root[0] ^= 1
	if err := Verify(ps, a2); !errors.Is(err, ErrTampered) {
		t.Fatalf("Verify with a wrong root: %v", err)
	}
}

// TestTamperSingleBit is the headline acceptance test: one flipped bit
// in any payload makes anchor verification fail.
func TestTamperSingleBit(t *testing.T) {
	honest := payloads(20)
	a := AnchorOf(honest)
	for i := range honest {
		for bit := 0; bit < 8; bit++ {
			tampered := make([][]byte, len(honest))
			copy(tampered, honest)
			mod := append([]byte(nil), honest[i]...)
			mod[len(mod)/2] ^= 1 << bit
			tampered[i] = mod
			if err := Verify(tampered, a); err == nil {
				t.Fatalf("flipped bit %d of entry %d went undetected", bit, i)
			} else if !errors.Is(err, ErrTampered) {
				t.Fatalf("want ErrTampered, got %v", err)
			}
		}
	}
	// Dropping, reordering, and swapping entries are also detected.
	if err := Verify(honest[:19], a); err == nil {
		t.Fatal("dropped entry went undetected")
	}
	swapped := make([][]byte, len(honest))
	copy(swapped, honest)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if err := Verify(swapped, a); err == nil {
		t.Fatal("reordered entries went undetected")
	}
}

// TestTamperStream flips bits throughout marshalled streams; Load must
// refuse every mutant. The 6-entry stream gets every bit of every byte,
// the two-segment 129-entry stream one bit per byte.
func TestTamperStream(t *testing.T) {
	for _, n := range []int{6, 129} {
		data := Marshal(payloads(n))
		for off := 0; off < len(data); off++ {
			for bit := 0; bit < 8; bit++ {
				if n > 8 && bit != off%8 {
					continue
				}
				mut := append([]byte(nil), data...)
				mut[off] ^= 1 << bit
				if _, err := Load(mut); err == nil {
					t.Fatalf("n=%d: flip at byte %d bit %d silently accepted", n, off, bit)
				}
			}
		}
	}
}

// TestLoadRejectsForgedSeal: a CRC-valid seal or anchor frame whose
// hashes lie is tampering, not a framing error.
func TestLoadRejectsForgedSeal(t *testing.T) {
	ps := payloads(4)
	a := AnchorOf(ps)
	forge := func(seal, anchor []byte) []byte {
		bad := append([]byte(Magic), Version)
		for _, p := range ps {
			bad = appendFrame(bad, kindEntry, p)
		}
		bad = appendFrame(bad, kindSeal, seal)
		return appendFrame(bad, kindAnchor, anchor)
	}
	seal := make([]byte, 8, sealBodySize)
	seal[7] = 4 // index 0, 4 leaves
	seal = append(seal, a.Roots[0].Root[:]...)
	if _, err := Load(forge(seal, a.Marshal())); err != nil {
		t.Fatalf("honest hand-built stream refused: %v", err)
	}
	seal[8] ^= 1
	if _, err := Load(forge(seal, a.Marshal())); !errors.Is(err, ErrTampered) {
		t.Fatalf("forged seal root: %v, want ErrTampered", err)
	}
	seal[8] ^= 1
	lying := a
	lying.Head[0] ^= 1
	if _, err := Load(forge(seal, lying.Marshal())); !errors.Is(err, ErrTampered) {
		t.Fatalf("forged anchor head: %v, want ErrTampered", err)
	}
}

func TestLoadRejectsTrailingGarbage(t *testing.T) {
	data := append(Marshal(payloads(3)), 0xde, 0xad)
	if _, err := Load(data); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
}

func TestParseAnchorRejectsOversizedCount(t *testing.T) {
	a := Anchor{Version: Version, Leaves: 1}
	w := a.Marshal()
	// Declare ~2³² roots; the uint64-space size check must reject it
	// without allocating.
	off := len(anchorMagic) + 1 + 8 + HashSize
	w[off], w[off+1], w[off+2], w[off+3] = 0xff, 0xff, 0xff, 0xff
	if _, err := ParseAnchor(w); err == nil {
		t.Fatal("oversized root count accepted")
	}
}
