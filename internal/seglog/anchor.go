package seglog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// anchorMagic tags a standalone marshalled anchor (they also travel
// outside seglog streams, embedded in CRIA images).
const anchorMagic = "FLXA"

// SegmentRoot is one segment's summary inside an anchor.
type SegmentRoot struct {
	// Leaves is the segment's leaf count.
	Leaves uint32
	// Root is the segment's Merkle root.
	Root [HashSize]byte
}

// Anchor is a compact commitment to a payload list: the leaf count,
// the hash-chain head, and every segment's Merkle root. ~50 bytes + 36
// per segment — small enough to ride inside a CRIA image, strong enough
// that Verify against it detects any single flipped bit in gigabytes of
// log.
type Anchor struct {
	Version byte
	// Leaves is the number of leaves the anchor covers.
	Leaves uint64
	// Head is the chain head after leaf Leaves-1 (zero when empty).
	Head [HashSize]byte
	// Roots lists the segments in order.
	Roots []SegmentRoot
}

// AnchorOf computes the anchor over payloads: it runs the hash chain
// and reduces each segment of SegmentLeaves leaves (the last one holds
// the remainder) to its Merkle root.
func AnchorOf(payloads [][]byte) Anchor {
	a := Anchor{
		Version: Version,
		Leaves:  uint64(len(payloads)),
		Roots:   make([]SegmentRoot, 0, (len(payloads)+SegmentLeaves-1)/SegmentLeaves),
	}
	h := newHasher()
	leaves := make([][HashSize]byte, min(len(payloads), SegmentLeaves))
	for start := 0; start < len(payloads); start += SegmentLeaves {
		seg := payloads[start:min(start+SegmentLeaves, len(payloads))]
		for i, p := range seg {
			h.leaf(&a.Head, p)
			leaves[i] = a.Head
		}
		a.Roots = append(a.Roots, SegmentRoot{Leaves: uint32(len(seg)), Root: h.root(leaves[:len(seg)])})
	}
	return a
}

// Verify checks that payloads is exactly the list the anchor commits
// to: it recomputes the anchor and compares count, head and every
// segment root. Any flipped bit, dropped, added or reordered entry
// fails with ErrTampered.
func Verify(payloads [][]byte, a Anchor) error {
	if uint64(len(payloads)) != a.Leaves {
		return fmt.Errorf("%w: anchor covers %d entries, log has %d", ErrTampered, a.Leaves, len(payloads))
	}
	got := AnchorOf(payloads)
	if got.Head != a.Head {
		return fmt.Errorf("%w: chain head mismatch", ErrTampered)
	}
	if len(got.Roots) != len(a.Roots) {
		return fmt.Errorf("%w: anchor lists %d segments, log has %d", ErrTampered, len(a.Roots), len(got.Roots))
	}
	for i, r := range got.Roots {
		if r != a.Roots[i] {
			return fmt.Errorf("%w: segment %d root mismatch", ErrTampered, i)
		}
	}
	return nil
}

// Marshal serializes the anchor:
//
//	"FLXA" | version | u64 leaves | head[32] | u32 nRoots |
//	(u32 leaves | root[32])* | u32 crc32c(everything before)
func (a Anchor) Marshal() []byte {
	buf := make([]byte, 0, len(anchorMagic)+1+8+HashSize+4+len(a.Roots)*(4+HashSize)+4)
	buf = append(buf, anchorMagic...)
	buf = append(buf, a.Version)
	buf = binary.BigEndian.AppendUint64(buf, a.Leaves)
	buf = append(buf, a.Head[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.Roots)))
	for _, r := range a.Roots {
		buf = binary.BigEndian.AppendUint32(buf, r.Leaves)
		buf = append(buf, r.Root[:]...)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// ParseAnchor decodes a marshalled anchor, verifying its CRC and
// rejecting oversized or trailing bytes.
func ParseAnchor(data []byte) (Anchor, error) {
	var a Anchor
	fixed := len(anchorMagic) + 1 + 8 + HashSize + 4
	if len(data) < fixed+4 {
		return a, fmt.Errorf("seglog: anchor too short (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(anchorMagic)], []byte(anchorMagic)) {
		return a, fmt.Errorf("seglog: bad anchor magic %q", data[:len(anchorMagic)])
	}
	a.Version = data[len(anchorMagic)]
	if a.Version != Version {
		return a, fmt.Errorf("seglog: unsupported anchor version %d", a.Version)
	}
	off := len(anchorMagic) + 1
	a.Leaves = binary.BigEndian.Uint64(data[off:])
	off += 8
	copy(a.Head[:], data[off:])
	off += HashSize
	n := binary.BigEndian.Uint32(data[off:])
	off += 4
	// Compare in uint64 space so a declared count near 2³² cannot wrap
	// the arithmetic into accepting a short buffer.
	need := uint64(off) + uint64(n)*(4+HashSize) + 4
	if need != uint64(len(data)) {
		return a, fmt.Errorf("seglog: anchor declares %d roots (%d bytes), have %d", n, need, len(data))
	}
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(data[:len(data)-4], crcTable) != want {
		return a, fmt.Errorf("%w: anchor CRC mismatch", ErrTampered)
	}
	a.Roots = make([]SegmentRoot, n)
	for i := range a.Roots {
		a.Roots[i].Leaves = binary.BigEndian.Uint32(data[off:])
		off += 4
		copy(a.Roots[i].Root[:], data[off:])
		off += HashSize
	}
	return a, nil
}
