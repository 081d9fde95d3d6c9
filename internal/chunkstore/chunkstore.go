// Package chunkstore is the guest-side content-addressed chunk cache of
// Flux's delta-migration layer (DESIGN.md §5g).
//
// A commuter bounces an app phone→tablet→phone all day; after the first
// hop most CRIA chunk bytes already sit on the other device. The
// migration negotiation (internal/migration/delta.go) asks this store,
// per chunk digest, whether the peer already holds the content: hits skip
// the wire entirely, near-misses (the previous content generation of the
// same chunk) take the rsyncx rolling-delta path, and everything shipped
// is Put back so the next hop in either direction benefits.
//
// Design constraints, in order:
//
//   - Deterministic. Eviction order is a pure function of the operation
//     sequence: recency is the order of operations, not wall-clock time,
//     so the store is clean under the repo's virtual-clock and maprange
//     source invariants (fluxvet) and byte-identical at any worker-pool
//     width. Same seed + same budget ⇒ identical eviction order (tested).
//   - Bounded. A byte budget caps resident content; least-recently-used
//     entries evict first.
//   - Accounted. Hits, misses, evictions, invalidations, and the wire
//     bytes the cache kept off the air are all counted in Stats, which
//     the migration report and the commuter experiment read.
//   - Allocation-free per operation. Entries live by value in one slot
//     table, linked into the recency list by slot index, and evicted
//     slots are reused through a free list; a map from digest to slot
//     index finds them. Only growing the table or the map allocates, and
//     neither holds a pointer, so the garbage collector never scans the
//     store.
//
// The store holds chunk *identities and sizes*, not payload bytes — the
// simulation's substitution rule carries segment content as (size,
// entropy) descriptors, so caching the digest is caching the content.
package chunkstore

import (
	"crypto/sha256"
	"sync"
)

// Digest is a chunk's SHA-256 content identity (cria.Chunk.Digest).
type Digest = [sha256.Size]byte

// Stats is the store's lifetime accounting.
type Stats struct {
	// Hits counts lookups that found the digest resident.
	Hits int
	// Misses counts lookups that did not.
	Misses int
	// Puts counts insertions (including refreshes of resident entries).
	Puts int
	// Evictions counts entries dropped by the byte budget.
	Evictions int
	// Invalidations counts entries dropped explicitly (poisoned content).
	Invalidations int
	// BytesNotShipped sums the wire bytes of every hit — the transfer
	// the cache kept off the air.
	BytesNotShipped int64
}

// slot is one entry of the slot table: a resident chunk, or a free slot
// waiting for reuse.
type slot struct {
	digest Digest
	// raw is the chunk's uncompressed size (the budget currency: resident
	// content occupies raw bytes on the device).
	raw int64
	// wire is the chunk's on-the-wire size as last Put.
	wire int64
	// prev and next link a resident slot into the recency list; a free
	// slot keeps the next free slot in next. Slot 0 is the list's root,
	// so index 0 also ends the free list.
	prev, next int32
}

// Store is a per-device, per-pair content-addressed chunk cache with LRU
// byte-budget eviction. Safe for concurrent use; every operation is a
// pure function of the serialized operation order.
type Store struct {
	mu     sync.Mutex
	budget int64
	size   int64
	// index maps each resident digest to its slot.
	index map[Digest]int32
	// slots holds every entry by value. slots[0] is the root of the
	// circular recency list: its next is the most recently used entry and
	// its prev the least, which eviction takes first. Recency is the
	// operation sequence itself — no clocks.
	slots []slot
	// free is the first slot an eviction or invalidation released (0:
	// none), reused before the table grows.
	free  int32
	stats Stats
	// onEvict, when set (tests, telemetry), observes every eviction in
	// order with the entry's digest and raw size.
	onEvict func(Digest, int64)
}

// New builds a store with a raw-byte budget; budget <= 0 means unbounded.
func New(budget int64) *Store {
	return &Store{
		budget: budget,
		index:  make(map[Digest]int32),
		slots:  make([]slot, 1),
	}
}

// SetOnEvict installs an eviction observer (called with the store lock
// held; keep it cheap). Tests use it to assert deterministic eviction
// order.
func (s *Store) SetOnEvict(fn func(d Digest, raw int64)) {
	s.mu.Lock()
	s.onEvict = fn
	s.mu.Unlock()
}

// Budget returns the configured raw-byte budget (<= 0: unbounded).
func (s *Store) Budget() int64 { return s.budget }

// Len returns the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// SizeBytes returns the resident raw bytes.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Stats returns a copy of the lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Lookup asks whether the digest is resident. A hit refreshes the
// entry's recency and credits wire to BytesNotShipped (the caller passes
// the bytes this hit kept off the air); a miss only counts. Nil-safe:
// a nil store misses everything without counting.
func (s *Store) Lookup(d Digest, wire int64) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[d]
	if !ok {
		s.stats.Misses++
		return false
	}
	s.moveToFront(i)
	s.stats.Hits++
	if wire > 0 {
		s.stats.BytesNotShipped += wire
	}
	return true
}

// Contains reports residency without touching recency or counters — the
// negotiation uses it to probe previous-generation digests for the
// rolling-delta fallback without skewing hit accounting. Nil-safe.
func (s *Store) Contains(d Digest) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[d]
	return ok
}

// Put inserts (or refreshes) a chunk identity of raw uncompressed bytes
// and wire on-the-wire bytes, then evicts least-recently-used entries
// until the budget holds. The inserted entry is most-recent, so it is
// evicted only if it alone exceeds the whole budget. Nil-safe no-op.
func (s *Store) Put(d Digest, raw, wire int64) {
	if s == nil {
		return
	}
	if raw < 0 {
		raw = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Puts++
	if i, ok := s.index[d]; ok {
		e := &s.slots[i]
		s.size += raw - e.raw
		e.raw, e.wire = raw, wire
		s.moveToFront(i)
	} else {
		i := s.free
		if i != 0 {
			s.free = s.slots[i].next
		} else {
			i = int32(len(s.slots))
			s.slots = append(s.slots, slot{})
		}
		s.slots[i] = slot{digest: d, raw: raw, wire: wire}
		s.pushFront(i)
		s.index[d] = i
		s.size += raw
	}
	if s.budget > 0 {
		for s.size > s.budget && s.slots[0].prev != 0 {
			s.evictLocked(s.slots[0].prev)
			s.stats.Evictions++
		}
	}
}

// Invalidate drops a digest (poisoned or superseded content); reports
// whether it was resident. Nil-safe.
func (s *Store) Invalidate(d Digest) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[d]
	if !ok {
		return false
	}
	s.evictLocked(i)
	s.stats.Invalidations++
	return true
}

// evictLocked unlinks resident slot i, drops it from the index and puts
// it on the free list.
func (s *Store) evictLocked(i int32) {
	s.unlink(i)
	e := &s.slots[i]
	delete(s.index, e.digest)
	s.size -= e.raw
	e.next, s.free = s.free, i
	if s.onEvict != nil {
		s.onEvict(e.digest, e.raw)
	}
}

// pushFront links slot i in as the most recently used entry.
func (s *Store) pushFront(i int32) {
	first := s.slots[0].next
	s.slots[i].prev, s.slots[i].next = 0, first
	s.slots[first].prev = i
	s.slots[0].next = i
}

// unlink takes slot i out of the recency list.
func (s *Store) unlink(i int32) {
	prev, next := s.slots[i].prev, s.slots[i].next
	s.slots[prev].next = next
	s.slots[next].prev = prev
}

// moveToFront makes resident slot i the most recently used entry.
func (s *Store) moveToFront(i int32) {
	if s.slots[0].next != i {
		s.unlink(i)
		s.pushFront(i)
	}
}
