package seglog

import (
	"crypto/sha256"
	"hash"
)

// interiorPrefix domain-separates interior nodes from leaves so an
// interior hash cannot pass for a leaf (second-preimage hardening, the
// usual certificate-transparency trick).
var interiorPrefix = []byte{0x01}

// hasher computes chain leaves and Merkle nodes through one reused
// SHA-256 state, so hashing a list allocates nothing per entry.
type hasher struct {
	h   hash.Hash
	sum []byte
}

func newHasher() *hasher {
	return &hasher{h: sha256.New(), sum: make([]byte, 0, HashSize)}
}

// leaf advances the chain: *head = SHA-256(payload ‖ *head).
func (x *hasher) leaf(head *[HashSize]byte, payload []byte) {
	x.h.Reset()
	x.h.Write(payload)
	x.h.Write(head[:])
	x.sum = x.h.Sum(x.sum[:0])
	copy(head[:], x.sum)
}

// root reduces a segment's leaf hashes to their Merkle root in place,
// overwriting level. An odd node at any level is promoted unchanged (no
// duplication); one leaf is its own root.
func (x *hasher) root(level [][HashSize]byte) [HashSize]byte {
	for len(level) > 1 {
		next := 0
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				x.h.Reset()
				x.h.Write(interiorPrefix)
				x.h.Write(level[i][:])
				x.h.Write(level[i+1][:])
				x.sum = x.h.Sum(x.sum[:0])
				copy(level[next][:], x.sum)
			} else {
				level[next] = level[i]
			}
			next++
		}
		level = level[:next]
	}
	return level[0]
}
