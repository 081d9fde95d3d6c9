// Package seglog is the tamper-evident container of the Selective
// Record log (DESIGN.md §5j): pure functions over an ordered list of
// opaque entry payloads.
//
//   - Every entry extends a hash chain: leaf_i = SHA-256(payload_i ‖
//     leaf_{i-1}), with leaf_{-1} = 0³². The chain head commits to the
//     exact content AND order of every entry.
//   - Every SegmentLeaves leaves form a segment, and the last segment
//     holds the remainder. A segment's seal is the Merkle root over its
//     leaf hashes.
//   - The anchor (AnchorOf) commits to the whole list: the entry count,
//     the chain head and every segment root. Anchors are tiny (≈50
//     bytes + 36 per segment) and travel out of band: the CRIA image
//     embeds one so the guest device can check, before replay begins,
//     that the log it is about to replay is byte-for-byte what the home
//     device recorded (Verify).
//   - Marshal writes the list as one stream of CRC-framed records: the
//     entry frames, a seal frame after each segment, and a trailing
//     anchor frame. Load accepts exactly the streams Marshal writes, so
//     any CRC, chain, seal or anchor inconsistency, truncation or
//     trailing byte is an error: tampering or corruption is never read
//     through.
package seglog

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// Magic tags a seglog stream; Load refuses any other leading bytes.
	Magic = "FLXG"
	// Version is the stream and anchor format version.
	Version = 1
	// HashSize is the size of leaf hashes, roots, and the chain head.
	HashSize = sha256.Size
	// SegmentLeaves is the number of leaves a segment holds before the
	// next one starts.
	SegmentLeaves = 128
	// maxFrameBytes bounds a single frame's declared body length; a
	// declared length beyond it is rejected outright instead of driving
	// a huge allocation off attacker-controlled bytes.
	maxFrameBytes = 1 << 30
	// headerSize is magic + version byte.
	headerSize = len(Magic) + 1
	// frameOverhead is a frame's bytes beyond its body: u32 length, kind
	// byte and u32 CRC.
	frameOverhead = 4 + 1 + 4
	// sealBodySize is a seal frame's body: u32 index, u32 count, root.
	sealBodySize = 8 + HashSize
)

// Frame kinds. 0x02 marked a pruned entry in an earlier revision of
// the format; Load refuses it like any other unknown kind.
const (
	kindEntry  = 0x01 // body: opaque payload bytes
	kindSeal   = 0x03 // body: u32 segment index | u32 leaf count | root
	kindAnchor = 0x04 // body: marshalled Anchor
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTampered reports content whose framing is intact but whose hashes
// disagree: a seal root, anchor, or chain that does not match the bytes
// it claims to cover.
var ErrTampered = errors.New("seglog: content does not match its hashes")

// ErrTruncated reports a stream that ends mid-frame (or mid-header), or
// a frame whose CRC does not match.
var ErrTruncated = errors.New("seglog: truncated stream")

// Marshal serializes payloads as one stream: the header, then each
// segment's entry frames followed by its seal frame, then an anchor
// frame over the whole list.
func Marshal(payloads [][]byte) []byte {
	a := AnchorOf(payloads)
	aw := a.Marshal()
	size := headerSize + len(a.Roots)*(frameOverhead+sealBodySize) + frameOverhead + len(aw)
	for _, p := range payloads {
		size += frameOverhead + len(p)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, Magic...)
	buf = append(buf, Version)
	var seal [sealBodySize]byte
	for i, r := range a.Roots {
		start := i * SegmentLeaves
		for _, p := range payloads[start : start+int(r.Leaves)] {
			buf = appendFrame(buf, kindEntry, p)
		}
		binary.BigEndian.PutUint32(seal[0:], uint32(i))
		binary.BigEndian.PutUint32(seal[4:], r.Leaves)
		copy(seal[8:], r.Root[:])
		buf = appendFrame(buf, kindSeal, seal[:])
	}
	return appendFrame(buf, kindAnchor, aw)
}

// appendFrame writes one frame: u32 len(kind+body) | kind | body | crc.
func appendFrame(buf []byte, kind byte, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(body)))
	start := len(buf)
	buf = append(buf, kind)
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// Load decodes a stream Marshal wrote and returns its payloads, which
// alias data. Every frame must parse with a valid CRC, and the stream
// must be exactly Marshal of the decoded payloads: the same seals, the
// same anchor and no trailing bytes.
func Load(data []byte) ([][]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte stream is shorter than the header", ErrTruncated, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("seglog: bad magic %q", data[:len(Magic)])
	}
	if data[len(Magic)] != Version {
		return nil, fmt.Errorf("seglog: unsupported version %d", data[len(Magic)])
	}
	var payloads [][]byte
	for off := headerSize; off < len(data); {
		kind, body, consumed, err := readFrame(data[off:])
		if err != nil {
			return nil, fmt.Errorf("%w (offset %d)", err, off)
		}
		switch kind {
		case kindEntry:
			payloads = append(payloads, body)
		case kindSeal, kindAnchor:
			// Checked against the recomputed stream below.
		default:
			return nil, fmt.Errorf("seglog: unknown frame kind 0x%02x (offset %d)", kind, off)
		}
		off += consumed
	}
	if !bytes.Equal(Marshal(payloads), data) {
		return nil, fmt.Errorf("%w: seals or anchor do not match the %d entries", ErrTampered, len(payloads))
	}
	return payloads, nil
}

// readFrame decodes one frame from the head of data, returning the kind
// byte, the body, and the bytes consumed.
func readFrame(data []byte) (kind byte, body []byte, consumed int, err error) {
	if len(data) < 4 {
		return 0, nil, 0, fmt.Errorf("%w: partial frame length", ErrTruncated)
	}
	fl := binary.BigEndian.Uint32(data)
	if fl == 0 {
		return 0, nil, 0, errors.New("seglog: zero-length frame")
	}
	// Compare in uint64 space: a declared length near 2³² must not wrap
	// an int32/uint32 comparison into acceptance, and an absurd length
	// is rejected before any allocation.
	if uint64(fl) > maxFrameBytes {
		return 0, nil, 0, fmt.Errorf("seglog: frame declares %d bytes (max %d)", fl, maxFrameBytes)
	}
	total := uint64(4) + uint64(fl) + 4
	if total > uint64(len(data)) {
		return 0, nil, 0, fmt.Errorf("%w: frame needs %d bytes, %d remain", ErrTruncated, total, len(data))
	}
	payload := data[4 : 4+fl]
	want := binary.BigEndian.Uint32(data[4+fl:])
	if crc32.Checksum(payload, crcTable) != want {
		return 0, nil, 0, fmt.Errorf("%w: frame CRC mismatch", ErrTruncated)
	}
	return payload[0], payload[1:], int(total), nil
}
