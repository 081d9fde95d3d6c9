package experiments

import "testing"

// TestCommuterDeterministic: two identical commuter runs produce
// byte-identical per-hop reports — the dirty pattern, negotiation, and
// store evolution are all pure functions of the spec.
func TestCommuterDeterministic(t *testing.T) {
	spec := DefaultCommuterSpec()
	spec.RoundTrips = 2
	p := Figure12Pairs()[1]
	a := CommuterApp()
	r1, err := RunCommuterPair(p, a, spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCommuterPair(p, a, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Hops) != len(r2.Hops) {
		t.Fatalf("hop counts differ: %d vs %d", len(r1.Hops), len(r2.Hops))
	}
	for i := range r1.Hops {
		a, b := r1.Hops[i].Report, r2.Hops[i].Report
		if a.TransferredBytes != b.TransferredBytes ||
			a.CacheHits != b.CacheHits ||
			a.CacheRollingHits != b.CacheRollingHits ||
			a.CacheMisses != b.CacheMisses ||
			a.CacheBytesNotShipped != b.CacheBytesNotShipped ||
			a.Timings.Total() != b.Timings.Total() {
			t.Errorf("hop %d diverged between identical runs:\n  %+v\n  %+v", i+1, a, b)
		}
	}
}

// TestCommuterPipelined: the pipelined commuter moves the same bytes as
// the sequential one on every hop and still meets the 25% bar.
func TestCommuterPipelined(t *testing.T) {
	spec := DefaultCommuterSpec()
	spec.RoundTrips = 2
	p := Figure12Pairs()[0]
	a := CommuterApp()
	seq, err := RunCommuterPair(p, a, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Pipelined = true
	pip, err := RunCommuterPair(p, a, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Hops {
		s, q := seq.Hops[i].Report, pip.Hops[i].Report
		if s.CacheHits != q.CacheHits || s.CacheRollingHits != q.CacheRollingHits ||
			s.CacheMisses != q.CacheMisses {
			t.Errorf("hop %d: verdicts differ between sequential and pipelined", i+1)
		}
		// Hop 1 is byte-exact; later hops may drift a few bytes because the
		// two modes' hop-1 timelines differ, which shifts record-log
		// timestamps (see TestDeltaPipelinedMatchesSequentialBytes).
		diff := s.TransferredBytes - q.TransferredBytes
		if diff < 0 {
			diff = -diff
		}
		var tol int64
		if i > 0 {
			tol = 64
		}
		if diff > tol {
			t.Errorf("hop %d: transferred bytes differ by %d (seq %d, pip %d)",
				i+1, diff, s.TransferredBytes, q.TransferredBytes)
		}
	}
	if st, h1 := pip.SteadyAvgBytes(), pip.Hop1Bytes(); st > h1/4 {
		t.Errorf("pipelined hops 2+ averaged %d bytes, over 25%% of hop 1's %d", st, h1)
	}
}

// TestCommuterCacheBudgetEviction: a tiny cache budget forces evictions
// and degrades (but must not break) the steady state — every hop still
// completes with consistent state.
func TestCommuterCacheBudgetEviction(t *testing.T) {
	spec := DefaultCommuterSpec()
	spec.RoundTrips = 2
	spec.CacheBudget = 256 << 10 // far below the app's image size
	p := Figure12Pairs()[0]
	r, err := RunCommuterPair(p, CommuterApp(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var hits int
	for _, h := range r.Hops {
		hits += h.Report.CacheHits + h.Report.CacheRollingHits
	}
	// With the budget an order of magnitude below the image, the store
	// cannot serve the steady state the unbounded run enjoys.
	full, err := RunCommuterPair(p, CommuterApp(), DefaultCommuterSpecTrips(2))
	if err != nil {
		t.Fatal(err)
	}
	var fullHits int
	for _, h := range full.Hops {
		fullHits += h.Report.CacheHits + h.Report.CacheRollingHits
	}
	if hits >= fullHits {
		t.Errorf("budgeted run hit %d times, unbounded %d — eviction had no effect", hits, fullHits)
	}
}

// DefaultCommuterSpecTrips is DefaultCommuterSpec with RoundTrips
// overridden — test helper.
func DefaultCommuterSpecTrips(k int) CommuterSpec {
	s := DefaultCommuterSpec()
	s.RoundTrips = k
	return s
}
