package chunkstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func dig(i int) Digest {
	return sha256.Sum256([]byte(fmt.Sprintf("chunk-%d", i)))
}

func TestLookupPutBasics(t *testing.T) {
	s := New(0) // unbounded
	d := dig(1)
	if s.Lookup(d, 100) {
		t.Fatal("lookup on empty store hit")
	}
	s.Put(d, 1000, 400)
	if !s.Lookup(d, 400) {
		t.Fatal("lookup after put missed")
	}
	if !s.Contains(d) {
		t.Fatal("Contains after put false")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 put", st)
	}
	if st.BytesNotShipped != 400 {
		t.Fatalf("BytesNotShipped = %d, want 400", st.BytesNotShipped)
	}
	if s.SizeBytes() != 1000 || s.Len() != 1 {
		t.Fatalf("size=%d len=%d, want 1000/1", s.SizeBytes(), s.Len())
	}
}

func TestContainsDoesNotCount(t *testing.T) {
	s := New(0)
	s.Put(dig(1), 10, 5)
	s.Contains(dig(1))
	s.Contains(dig(2))
	st := s.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Contains skewed stats: %+v", st)
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	s := New(300)
	var evicted []Digest
	s.SetOnEvict(func(d Digest, raw int64) { evicted = append(evicted, d) })
	s.Put(dig(1), 100, 50)
	s.Put(dig(2), 100, 50)
	s.Put(dig(3), 100, 50)
	// Touch 1 so 2 becomes least-recently-used.
	if !s.Lookup(dig(1), 0) {
		t.Fatal("expected hit on 1")
	}
	s.Put(dig(4), 100, 50) // over budget: evict 2
	if len(evicted) != 1 || evicted[0] != dig(2) {
		t.Fatalf("evicted %v, want exactly dig(2)", evicted)
	}
	if s.Contains(dig(2)) {
		t.Fatal("dig(2) still resident after eviction")
	}
	for _, i := range []int{1, 3, 4} {
		if !s.Contains(dig(i)) {
			t.Fatalf("dig(%d) evicted unexpectedly", i)
		}
	}
	if s.SizeBytes() != 300 {
		t.Fatalf("size=%d, want 300", s.SizeBytes())
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestPutRefreshResizesAndTouches(t *testing.T) {
	s := New(250)
	s.Put(dig(1), 100, 50)
	s.Put(dig(2), 100, 50)
	s.Put(dig(1), 150, 80) // refresh: grows to 250, touches 1
	if s.SizeBytes() != 250 || s.Len() != 2 {
		t.Fatalf("size=%d len=%d, want 250/2", s.SizeBytes(), s.Len())
	}
	var evicted []Digest
	s.SetOnEvict(func(d Digest, raw int64) { evicted = append(evicted, d) })
	s.Put(dig(3), 50, 25) // 2 is now LRU and must go (then size 250)
	if len(evicted) != 1 || evicted[0] != dig(2) {
		t.Fatalf("evicted %v, want exactly dig(2)", evicted)
	}
}

func TestOversizedEntryEvictsItself(t *testing.T) {
	s := New(100)
	s.Put(dig(1), 500, 200)
	if s.Len() != 0 || s.SizeBytes() != 0 {
		t.Fatalf("oversized entry stayed resident: len=%d size=%d", s.Len(), s.SizeBytes())
	}
}

func TestInvalidate(t *testing.T) {
	s := New(0)
	s.Put(dig(1), 100, 50)
	if !s.Invalidate(dig(1)) {
		t.Fatal("Invalidate on resident entry returned false")
	}
	if s.Invalidate(dig(1)) {
		t.Fatal("Invalidate on absent entry returned true")
	}
	if s.Contains(dig(1)) || s.SizeBytes() != 0 {
		t.Fatal("entry survived invalidation")
	}
	if st := s.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	if s.Lookup(dig(1), 10) {
		t.Fatal("nil store hit")
	}
	if s.Contains(dig(1)) {
		t.Fatal("nil store contains")
	}
	s.Put(dig(1), 10, 5)
	if s.Invalidate(dig(1)) {
		t.Fatal("nil store invalidated")
	}
}

// TestEvictionOrderDeterministic is the LRU determinism property test:
// the same seeded operation sequence against the same budget must
// produce an identical eviction order, every run, independent of map
// iteration order or scheduling. This is what makes commuter reports
// byte-identical at any worker-pool width. The eviction sequence's
// SHA-256 and the final Stats are pinned at what the container/list
// store produced, so the order is the one that store gave, not only a
// stable one.
func TestEvictionOrderDeterministic(t *testing.T) {
	run := func(seed int64, budget int64) ([]eviction, Stats) {
		rng := rand.New(rand.NewSource(seed))
		s := New(budget)
		var order []eviction
		s.SetOnEvict(func(d Digest, raw int64) { order = append(order, eviction{d, raw}) })
		for op := 0; op < 2000; op++ {
			i := rng.Intn(64)
			switch rng.Intn(4) {
			case 0, 1:
				s.Put(dig(i), int64(rng.Intn(900)+100), int64(rng.Intn(400)+50))
			case 2:
				s.Lookup(dig(i), int64(rng.Intn(400)))
			case 3:
				s.Invalidate(dig(i))
			}
		}
		return order, s.Stats()
	}
	pinned := map[int64]struct {
		sha   string
		stats Stats
	}{
		1:  {"e91aef7e465026a2b1ac4e021899f749bbc53164ca080c9acceb17b14bf20781", Stats{Hits: 114, Misses: 383, Puts: 1018, Evictions: 695, Invalidations: 94, BytesNotShipped: 22122}},
		7:  {"cf80e99b8a7daeddb3b2489e92368b83b3c584fd1f96cfccf0b4dd87a5211d62", Stats{Hits: 103, Misses: 367, Puts: 1043, Evictions: 676, Invalidations: 94, BytesNotShipped: 20995}},
		42: {"63f73b8f5981c74127bba54fb06271da54a84919a73e6d30d2edde84a5187bd2", Stats{Hits: 107, Misses: 387, Puts: 999, Evictions: 646, Invalidations: 118, BytesNotShipped: 23381}},
	}
	for _, seed := range []int64{1, 7, 42} {
		o1, st1 := run(seed, 8<<10)
		o2, st2 := run(seed, 8<<10)
		if len(o1) == 0 {
			t.Fatalf("seed %d: property test exercised no evictions", seed)
		}
		if len(o1) != len(o2) {
			t.Fatalf("seed %d: eviction counts differ: %d vs %d", seed, len(o1), len(o2))
		}
		for k := range o1 {
			if o1[k] != o2[k] {
				t.Fatalf("seed %d: eviction order diverges at %d", seed, k)
			}
		}
		if st1 != st2 {
			t.Fatalf("seed %d: stats diverge: %+v vs %+v", seed, st1, st2)
		}
		want := pinned[seed]
		if got := evictionSHA(o1); got != want.sha {
			t.Errorf("seed %d: eviction sequence SHA-256 %s, pinned %s", seed, got, want.sha)
		}
		if st1 != want.stats {
			t.Errorf("seed %d: stats %+v, pinned %+v", seed, st1, want.stats)
		}
	}
}

// TestConcurrentUse drives one budgeted store from several goroutines
// (run it with -race): the store must stay within its budget and count
// every operation.
func TestConcurrentUse(t *testing.T) {
	const workers, ops, budget = 4, 2000, 8 << 10
	s := New(budget)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < ops; op++ {
				d := dig(rng.Intn(64))
				switch op % 4 {
				case 0, 1:
					s.Put(d, int64(rng.Intn(900)+100), 50)
				case 2:
					s.Lookup(d, 50)
				case 3:
					s.Invalidate(d)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := s.Stats()
	if st.Puts != workers*ops/2 || st.Hits+st.Misses != workers*ops/4 {
		t.Fatalf("stats %+v, want %d puts and %d lookups", st, workers*ops/2, workers*ops/4)
	}
	if s.SizeBytes() > budget || s.Len() > 64 {
		t.Fatalf("store holds %d entries, %d bytes over a %d-byte budget", s.Len(), s.SizeBytes(), budget)
	}
}

// evictionSHA hashes an eviction sequence in hex: each digest, then its
// raw size as 8 little-endian bytes.
func evictionSHA(evs []eviction) string {
	h := sha256.New()
	for _, e := range evs {
		h.Write(e.d[:])
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(e.raw)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// seqDigest is the n-th digest of a sequence that never repeats, built
// without allocating.
func seqDigest(n int) Digest {
	var d Digest
	binary.LittleEndian.PutUint64(d[:], uint64(n))
	return d
}

// TestStoreAllocs pins what the store allocates per operation: nothing.
// A new digest takes a freed slot once a budget evicts, and growing the
// slot table and the index is amortized over the puts that fill them,
// so 1,000 puts into an unbounded store allocate less than once per
// put (AllocsPerRun truncates the mean).
func TestStoreAllocs(t *testing.T) {
	const runs, raw = 1000, 100
	budgeted := New(64 * raw) // full after 64 puts; each later put evicts one entry
	next := 0
	put := func(s *Store) func() {
		return func() {
			s.Put(seqDigest(next), raw, raw/2)
			next++
		}
	}
	for next < 64 {
		put(budgeted)()
	}
	resident, absent := seqDigest(0), seqDigest(-1)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Lookup/hit", func() { budgeted.Lookup(resident, raw) }},
		{"Lookup/miss", func() { budgeted.Lookup(absent, raw) }},
		{"Contains", func() { budgeted.Contains(resident) }},
		{"Put/budgeted", put(budgeted)},
		{"Put/unbounded", put(New(0))},
	} {
		if allocs := testing.AllocsPerRun(runs, tc.call); allocs != 0 {
			t.Errorf("%s allocated %.0f objects per call, pinned at 0", tc.name, allocs)
		}
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	if st := budgeted.Stats(); st.Hits != runs+1 || st.Evictions != runs+1 {
		t.Fatalf("budgeted store: %d hits and %d evictions, want %d of each", st.Hits, st.Evictions, runs+1)
	}
	// Growth amortizes to zero allocations per put, so only the table's
	// size shows whether evicted slots are reused: 64 entries, one slot
	// freed and retaken by each put, and the root.
	if n := len(budgeted.slots); n != 64+2 {
		t.Fatalf("budgeted store holds %d slots for 64 entries, want 66", n)
	}
}

// BenchmarkStorePut measures putting a digest the store does not hold:
// into a full budgeted store, where each put evicts the least recently
// used entry and reuses its slot, and into unbounded stores that grow
// to 2,048 entries each, about what one commuter itinerary puts into
// each of its two stores.
func BenchmarkStorePut(b *testing.B) {
	const fill = 2048
	b.Run("budgeted", func(b *testing.B) {
		s := New(fill * 100)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Put(seqDigest(i), 100, 50)
		}
	})
	b.Run("unbounded", func(b *testing.B) {
		var s *Store
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%fill == 0 {
				s = New(0)
			}
			s.Put(seqDigest(i), 100, 50)
		}
	})
}
