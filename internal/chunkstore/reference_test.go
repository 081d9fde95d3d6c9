package chunkstore

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// refStore is the store as it was built on container/list: one heap
// entry and one list element per resident chunk. It is the reference
// model FuzzStoreMatchesReference holds the slot table to.
type refStore struct {
	budget  int64
	size    int64
	entries map[Digest]*refEntry
	lru     *list.List
	stats   Stats
	onEvict func(Digest, int64)
}

type refEntry struct {
	digest    Digest
	raw, wire int64
	elem      *list.Element
}

func newRef(budget int64) *refStore {
	return &refStore{budget: budget, entries: make(map[Digest]*refEntry), lru: list.New()}
}

func (s *refStore) Lookup(d Digest, wire int64) bool {
	e, ok := s.entries[d]
	if !ok {
		s.stats.Misses++
		return false
	}
	s.lru.MoveToFront(e.elem)
	s.stats.Hits++
	if wire > 0 {
		s.stats.BytesNotShipped += wire
	}
	return true
}

func (s *refStore) Contains(d Digest) bool {
	_, ok := s.entries[d]
	return ok
}

func (s *refStore) Put(d Digest, raw, wire int64) {
	if raw < 0 {
		raw = 0
	}
	s.stats.Puts++
	if e, ok := s.entries[d]; ok {
		s.size += raw - e.raw
		e.raw, e.wire = raw, wire
		s.lru.MoveToFront(e.elem)
	} else {
		e := &refEntry{digest: d, raw: raw, wire: wire}
		e.elem = s.lru.PushFront(e)
		s.entries[d] = e
		s.size += raw
	}
	if s.budget > 0 {
		for s.size > s.budget && s.lru.Len() > 0 {
			s.evict(s.lru.Back().Value.(*refEntry))
			s.stats.Evictions++
		}
	}
}

func (s *refStore) Invalidate(d Digest) bool {
	e, ok := s.entries[d]
	if !ok {
		return false
	}
	s.evict(e)
	s.stats.Invalidations++
	return true
}

func (s *refStore) evict(e *refEntry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.digest)
	s.size -= e.raw
	if s.onEvict != nil {
		s.onEvict(e.digest, e.raw)
	}
}

// eviction is one onEvict call.
type eviction struct {
	d   Digest
	raw int64
}

// opBytes is the size of one encoded operation in a fuzz input.
const opBytes = 4

// FuzzStoreMatchesReference runs one byte-coded operation sequence
// against the slot-table store and the container/list reference, and
// requires the two to agree after every operation: return values,
// Stats, Len, SizeBytes and the onEvict sequence. The first byte picks
// the budget (negative and zero mean unbounded); every following four
// bytes are one operation over a 16-digest domain, so digests collide,
// with raw and wire sizes that include zero and negative values.
func FuzzStoreMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0})
	f.Add([]byte{1, 0, 1, 200, 3, 0, 2, 200, 3, 1, 1, 0, 0, 0, 3, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 1+3000*opBytes)
		rng.Read(seed)
		f.Add(seed)
	}
	var domain [16]Digest
	for i := range domain {
		domain[i] = dig(i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var budget int64
		if len(data) > 0 {
			budget = int64(int8(data[0])) * 16
			data = data[1:]
		}
		got, want := New(budget), newRef(budget)
		var gotEv, wantEv []eviction
		checked := 0 // the evictions already compared
		peak := 0    // the most entries resident after any operation
		got.SetOnEvict(func(d Digest, raw int64) { gotEv = append(gotEv, eviction{d, raw}) })
		want.onEvict = func(d Digest, raw int64) { wantEv = append(wantEv, eviction{d, raw}) }
		for k := 0; k+opBytes <= len(data); k += opBytes {
			op := data[k : k+opBytes]
			d := domain[op[1]%16]
			raw := int64(int8(op[2])) * 8
			wire := int64(int8(op[3])) * 4
			var g, w bool
			switch op[0] % 4 {
			case 0:
				got.Put(d, raw, wire)
				want.Put(d, raw, wire)
			case 1:
				g, w = got.Lookup(d, wire), want.Lookup(d, wire)
			case 2:
				g, w = got.Contains(d), want.Contains(d)
			case 3:
				g, w = got.Invalidate(d), want.Invalidate(d)
			}
			if g != w {
				t.Fatalf("op %d (%v): store returned %v, reference %v", k/opBytes, op, g, w)
			}
			if gs, ws := got.Stats(), want.stats; gs != ws {
				t.Fatalf("op %d (%v): Stats %+v, reference %+v", k/opBytes, op, gs, ws)
			}
			if gl, wl := got.Len(), len(want.entries); gl != wl {
				t.Fatalf("op %d (%v): Len %d, reference %d", k/opBytes, op, gl, wl)
			}
			if gz, wz := got.SizeBytes(), want.size; gz != wz {
				t.Fatalf("op %d (%v): SizeBytes %d, reference %d", k/opBytes, op, gz, wz)
			}
			if !slices.Equal(gotEv[checked:], wantEv[checked:]) {
				t.Fatalf("op %d (%v): evicted %v, reference %v", k/opBytes, op, gotEv[checked:], wantEv[checked:])
			}
			checked = len(gotEv)
			// The table grows only when every slot is resident, so freed
			// slots are reused: it never holds more than one slot beyond
			// the peak, plus the root.
			peak = max(peak, len(want.entries))
			if len(got.slots) > peak+2 {
				t.Fatalf("op %d (%v): %d slots for a peak of %d entries", k/opBytes, op, len(got.slots), peak)
			}
		}
	})
}
