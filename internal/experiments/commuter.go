package experiments

// The commuter scenario: one app bounces between a device pair K times
// with the delta-migration chunk caches enabled, dirtying a fraction of
// its heap between hops — a user carrying a reading session between the
// phone on the train and the tablet at home. Hop 1 is a cold full
// transfer; every later hop negotiates digests against the receiver's
// content-addressed store and ships only what moved. The headline
// criterion (ISSUE 6): at K=8 round trips and 10% dirty rate, hops 2+
// must average at most 25% of hop 1's wire bytes.

import (
	"fmt"

	"flux/internal/apps"
	"flux/internal/chunkstore"
	"flux/internal/device"
	"flux/internal/faults"
	"flux/internal/migration"
	"flux/internal/obs"
	"flux/internal/pairing"
)

// CommuterSpec configures a commuter run. The zero value is invalid; use
// DefaultCommuterSpec (or fill every field) so defaults stay in one
// place.
type CommuterSpec struct {
	// RoundTrips is K: the app makes 2K hops (K forward, K back).
	RoundTrips int
	// DirtyRate is the fraction of checkpointable bytes the app touches
	// between consecutive hops (kernel.Process.DirtySegments frac).
	DirtyRate float64
	// Rewrite is the fraction of a touched region actually rewritten
	// (DirtySegments rewrite).
	Rewrite float64
	// CacheBudget bounds each device's chunk store in bytes; 0 keeps the
	// store unbounded.
	CacheBudget int64
	// Pipelined streams every hop through the chunked pipeline instead
	// of stop-and-copy. Byte accounting is identical either way.
	Pipelined bool
	// Seed drives the deterministic dirty pattern; per-hop seeds derive
	// from (Seed, package, pair, hop).
	Seed int64
}

// DefaultCommuterSpec is the ISSUE-6 headline configuration: 8 round
// trips, 10% dirty rate, half of each touched region rewritten,
// unbounded stores, sequential transfer.
func DefaultCommuterSpec() CommuterSpec {
	return CommuterSpec{
		RoundTrips: 8,
		DirtyRate:  0.10,
		Rewrite:    0.5,
		Seed:       1,
	}
}

// CommuterHop is one hop of a commuter run.
type CommuterHop struct {
	Hop     int  // 1-based position in the itinerary
	Forward bool // true = home→guest
	Report  *migration.Report
}

// CommuterRun is one device pair's full commuter itinerary.
type CommuterRun struct {
	Pair Pair
	App  apps.App
	Hops []CommuterHop
}

// Hop1Bytes returns the cold first hop's wire bytes.
func (r *CommuterRun) Hop1Bytes() int64 {
	if len(r.Hops) == 0 {
		return 0
	}
	return r.Hops[0].Report.TransferredBytes
}

// SteadyAvgBytes returns the average wire bytes of hops 2+.
func (r *CommuterRun) SteadyAvgBytes() int64 {
	if len(r.Hops) < 2 {
		return 0
	}
	var sum int64
	for _, h := range r.Hops[1:] {
		sum += h.Report.TransferredBytes
	}
	return sum / int64(len(r.Hops)-1)
}

// HitRatio returns cache hits (full + rolling) over negotiated chunks
// across hops 2+ — hop 1 is all misses by construction and would only
// dilute the steady state the scenario measures.
func (r *CommuterRun) HitRatio() float64 {
	var hits, total int
	for _, h := range r.Hops[1:] {
		rep := h.Report
		hits += rep.CacheHits + rep.CacheRollingHits
		total += rep.CacheHits + rep.CacheRollingHits + rep.CacheMisses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// NotShippedBytes sums the bytes the cache kept off the wire over the
// whole itinerary.
func (r *CommuterRun) NotShippedBytes() int64 {
	var sum int64
	for _, h := range r.Hops {
		sum += h.Report.CacheBytesNotShipped
	}
	return sum
}

// RunCommuterPair drives one pair through the commuter itinerary:
// install, pair, and launch once, then 2K hops alternating direction
// with one chunk store per device (roles swap with the direction) and a
// deterministic dirty step between consecutive hops.
func RunCommuterPair(p Pair, a apps.App, spec CommuterSpec) (run *CommuterRun, err error) {
	if spec.RoundTrips < 1 {
		return nil, fmt.Errorf("experiments: commuter needs at least one round trip, got %d", spec.RoundTrips)
	}
	home, err := device.New(p.Home("home"))
	if err != nil {
		return nil, err
	}
	guest, err := device.New(p.Guest("guest"))
	if err != nil {
		return nil, err
	}
	span := obs.T().Start("commuter",
		obs.String("pair", p.Name),
		obs.String("app", a.Spec.Label),
		obs.Int64("round_trips", int64(spec.RoundTrips)),
	).SetVirtualClock(home.Kernel.Clock().Now)
	defer func() {
		if err != nil {
			span.Attr(obs.String("error", err.Error()))
		}
		span.End()
	}()
	if err := apps.Install(home, a); err != nil {
		return nil, err
	}
	if _, err := pairing.Pair(home, guest, []string{a.Spec.Package}); err != nil {
		return nil, err
	}
	if _, err := apps.Launch(home, a); err != nil {
		return nil, err
	}
	homeStore := chunkstore.New(spec.CacheBudget)
	guestStore := chunkstore.New(spec.CacheBudget)

	run = &CommuterRun{Pair: p, App: a}
	hops := 2 * spec.RoundTrips
	for hop := 1; hop <= hops; hop++ {
		forward := hop%2 == 1
		opts := migration.Options{Pipelined: spec.Pipelined, Span: span}
		src, dst := guest, home
		if forward {
			src, dst = home, guest
		}
		if forward {
			opts.Cache, opts.SourceCache = guestStore, homeStore
		} else {
			opts.Cache, opts.SourceCache = homeStore, guestStore
		}
		rep, err := migration.New(src, dst, opts).Migrate(a.Spec.Package)
		if err != nil {
			return nil, fmt.Errorf("experiments: commuter hop %d (%s): %w", hop, p.Name, err)
		}
		if !rep.StateConsistent() {
			return nil, fmt.Errorf("experiments: commuter hop %d (%s): service state diverged", hop, p.Name)
		}
		run.Hops = append(run.Hops, CommuterHop{Hop: hop, Forward: forward, Report: rep})
		if hop < hops && spec.DirtyRate > 0 {
			seed := faults.Derive(spec.Seed, a.Spec.Package, p.Name, fmt.Sprintf("hop%d", hop))
			rep.App.Process().DirtySegments(spec.DirtyRate, spec.Rewrite, seed)
		}
	}
	return run, nil
}

// CommuterApp is the representative workload the commuter experiment
// carries — the same headline app the other ablations use.
func CommuterApp() apps.App { return *apps.ByPackage("com.king.candycrushsaga") }

// RunCommuter drives the commuter itinerary with CommuterApp on each of
// the four Figure-12 pairs, the pairs in parallel on a workers-wide
// pool. Runs come back in pair order and, each pair being a closed
// simulation, are identical at any width.
func RunCommuter(workers int, spec CommuterSpec) ([]*CommuterRun, error) {
	pairs, app := Figure12Pairs(), CommuterApp()
	runs := make([]*CommuterRun, len(pairs))
	err := ForEach(workers, len(pairs), func(i int) (err error) {
		runs[i], err = RunCommuterPair(pairs[i], app, spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}
