package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"flux/internal/apps"
	"flux/internal/experiments"
	"flux/internal/migration"
)

// onePairSpec is the smallest possible fleet: one user, two devices
// (phone + tablet), one migration of one app.
func onePairSpec() Spec {
	return Spec{
		Name:           "one-pair",
		Seed:           7,
		Users:          1,
		DevicesPerUser: 2,
		UsersPerAP:     1,
		Migrations:     1,
		Classes: []Class{{
			Name:       "solo",
			Share:      1,
			Arrival:    ArrivalPoisson,
			RatePerMin: 60,
			SLOMillis:  12000,
			Hops:       1,
			Apps:       []string{"com.king.candycrushsaga"},
		}},
	}
}

// TestOnePairReproducesMigrate is the anchor property: a 1-device-pair
// fleet must reproduce the single-pair Migrator.Migrate timings and
// bytes exactly — the event engine replays the measured stage graph,
// so any drift means the scheduler is inventing time.
func TestOnePairReproducesMigrate(t *testing.T) {
	app := apps.ByPackage("com.king.candycrushsaga")
	if app == nil {
		t.Fatal("candycrushsaga missing from the app catalog")
	}
	pair := experiments.Pair{
		Name:  "Nexus 4 to Nexus 7 (2013)",
		Home:  modelProfile(rolePhone),
		Guest: modelProfile(roleTablet),
	}
	rep, err := experiments.RunOneOpts(pair, *app, migration.Options{})
	if err != nil {
		t.Fatalf("RunOneOpts: %v", err)
	}

	res, err := Run(onePairSpec(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Completed != 1 || res.Report.Superseded != 0 {
		t.Fatalf("completed=%d superseded=%d, want 1/0", res.Report.Completed, res.Report.Superseded)
	}
	rec := res.Migs[0]
	if rec.WaitNS != 0 {
		t.Errorf("uncontended migration waited %dns for admission", rec.WaitNS)
	}
	if got, want := rec.DoneNS-rec.AdmitNS, int64(rep.Timings.Total()); got != want {
		t.Errorf("fleet total %dns, Migrator.Migrate total %dns", got, want)
	}
	if got, want := rec.UserNS, int64(rep.Timings.UserPerceived()); got != want {
		t.Errorf("fleet user-perceived %dns, Migrator.Migrate %dns", got, want)
	}
	if got, want := res.Sim().wireBytes, rep.TransferredBytes; got != want {
		t.Errorf("fleet wire bytes %d, Migrator.Migrate %d", got, want)
	}
}

// TestWidthIndependence: same seed + spec ⇒ byte-identical report at
// any profiling worker width. NewSim is used directly so each width
// genuinely rebuilds the profile table on its own pool.
func TestWidthIndependence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var want []byte
		for _, workers := range []int{1, 4, 16} {
			spec := ScaledSpec("width", 12, 120, seed)
			s, err := NewSim(spec, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			s.Run()
			rep, err := s.Report().Render()
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if want == nil {
				want = rep
				continue
			}
			if !bytes.Equal(rep, want) {
				t.Fatalf("seed %d: report at workers=%d differs from workers=1:\n%s\nvs\n%s",
					seed, workers, rep, want)
			}
		}
	}
}

// TestTerminalConservation: every arrival ends completed or superseded.
func TestTerminalConservation(t *testing.T) {
	spec := ScaledSpec("conserve", 24, 400, 11)
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report.Completed + res.Report.Superseded; got != res.Report.Migrations {
		t.Fatalf("completed %d + superseded %d != migrations %d",
			res.Report.Completed, res.Report.Superseded, res.Report.Migrations)
	}
	if res.Report.Events == 0 || res.Report.HorizonSec <= 0 {
		t.Fatalf("degenerate run: events=%d horizon=%gs", res.Report.Events, res.Report.HorizonSec)
	}
	if res.Report.FairnessJain <= 0 || res.Report.FairnessJain > 1 {
		t.Fatalf("Jain index %g out of (0,1]", res.Report.FairnessJain)
	}
}

// TestRunSteadyStateAllocs pins the engine's hot-path budget: a fresh
// Sim's first Run allocates nothing, and neither does any Reset+Run
// after it.
func TestRunSteadyStateAllocs(t *testing.T) {
	spec := ScaledSpec("allocs", 12, 200, 5)
	// AllocsPerRun's warm-up call consumes the first fresh Sim.
	fresh := make([]*Sim, 2)
	for i := range fresh {
		s, err := NewSim(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = s
	}
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		fresh[next].Run()
		next++
	})
	if allocs != 0 {
		t.Fatalf("a fresh Sim's first Run allocated %.1f objects, want 0", allocs)
	}
	s := fresh[0]
	allocs = testing.AllocsPerRun(10, func() {
		s.Reset()
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset+Run allocated %.1f objects/run, want 0", allocs)
	}
}

// TestTieOrder pins the order of events that fall on the same instant:
// arrivals first, in workload order, then engine events in the order
// they were scheduled. Four arrivals share each whole second, the GCRA
// period is 1 s and every stage node lasts 1 s, so arrivals, admission
// grants and stage completions coincide throughout; any other tie
// order moves the per-migration records.
func TestTieOrder(t *testing.T) {
	spec := ScaledSpec("ties", 48, 600, 3)
	spec.AdmissionRatePerMin = 60
	s, err := NewSim(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.wl.arrivals {
		s.wl.arrivals[i].at = int64(i/4) * 1e9
	}
	for pi := range s.profs.graphs {
		for ni := range s.profs.graphs[pi].Nodes {
			s.profs.graphs[pi].Nodes[ni].Duration = time.Second
		}
	}
	s.Reset()
	s.Run()
	h := sha256.New()
	for i := range s.migs {
		m := &s.migs[i]
		fmt.Fprintln(h, m.arriveNS, m.admitNS, m.ckptDoneNS, m.doneNS, m.userNS, m.waitNS, m.src, m.dst, m.state)
	}
	if s.events != 3217 || s.completed != 332 {
		t.Errorf("events=%d completed=%d, want 3217 and 332", s.events, s.completed)
	}
	const want = "dc9060f6795ecf7abb1cc72ef566c7711bde3a03a3e76c92a06d52603c440440"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("per-migration records hash %s, want %s", got, want)
	}
}

// TestAdmissionGCRA: with burst 1, per-AP admission grants are spaced
// at least one token period apart.
func TestAdmissionGCRA(t *testing.T) {
	spec := Spec{
		Name:           "gcra",
		Seed:           3,
		Users:          4,
		DevicesPerUser: 2,
		UsersPerAP:     4, // everyone behind one AP
		Migrations:     24,
		// 60 grants/min = one per second; arrivals come far faster.
		AdmissionRatePerMin: 60,
		AdmissionBurst:      1,
		Classes: []Class{{
			Name:       "burst",
			Share:      1,
			Arrival:    ArrivalPoisson,
			RatePerMin: 6000,
			SLOMillis:  60000,
			Hops:       1,
			Apps:       []string{"com.twitter.android"},
		}},
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const period = int64(1e9)
	var grants []int64
	for _, m := range res.Migs {
		if !m.Superseded {
			grants = append(grants, m.AdmitNS)
		}
	}
	if len(grants) < 2 {
		t.Fatalf("want ≥2 admitted migrations, got %d", len(grants))
	}
	for i := 1; i < len(grants); i++ {
		if d := grants[i] - grants[i-1]; d < period {
			t.Fatalf("grants %d and %d only %dns apart, want ≥%dns", i-1, i, d, period)
		}
	}
	waited := false
	for _, m := range res.Migs {
		if !m.Superseded && m.WaitNS > 0 {
			waited = true
			break
		}
	}
	if !waited {
		t.Fatal("admission control never queued anyone despite a 100x overload")
	}
}

// TestPlacementPolicies unit-tests place() against a built Sim.
func TestPlacementPolicies(t *testing.T) {
	base := Spec{
		Name:           "policy",
		Seed:           1,
		Users:          2,
		DevicesPerUser: 3,
		UsersPerAP:     2,
		Migrations:     1,
		Classes: []Class{{
			Name: "c", Share: 1, Arrival: ArrivalPoisson, RatePerMin: 60,
			SLOMillis: 12000, Hops: 1, Apps: []string{"com.twitter.android"},
		}},
	}

	newSim := func(placement string) *Sim {
		spec := base
		spec.Placement = placement
		s, err := NewSim(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Least-loaded: avoids the busy device, breaks ties low.
	s := newSim(PlacementLeastLoaded)
	m := &mig{user: 0, src: 0} // phone of user 0; candidates 1 (tablet), 2 (TV)
	if got := s.place(m); got != 1 {
		t.Fatalf("least-loaded tie: placed on %d, want 1 (lowest index)", got)
	}
	s.load[1] = 2
	if got := s.place(m); got != 2 {
		t.Fatalf("least-loaded: placed on %d despite load, want 2", got)
	}

	// Bandwidth-aware: from the phone, the 5 GHz tablet beats the
	// 2.4 GHz TV regardless of load.
	s = newSim(PlacementBandwidthAware)
	m = &mig{user: 0, src: 0}
	s.load[1] = 100
	if got := s.place(m); got != 1 {
		t.Fatalf("bandwidth-aware: placed on %d, want 5GHz tablet 1", got)
	}
	// From the TV, both candidates cross the 2.4 GHz radio; the tie
	// goes to the lowest index.
	m = &mig{user: 0, src: 2}
	if got := s.place(m); got != 0 {
		t.Fatalf("bandwidth-aware tie: placed on %d, want 0", got)
	}
}

// TestSupersede: overlapping requests for the same (user, app) are
// superseded, never queued behind themselves.
func TestSupersede(t *testing.T) {
	spec := Spec{
		Name:           "supersede",
		Seed:           9,
		Users:          1,
		DevicesPerUser: 2,
		UsersPerAP:     1,
		Migrations:     50,
		Classes: []Class{{
			Name: "spam", Share: 1, Arrival: ArrivalPoisson, RatePerMin: 100000,
			SLOMillis: 12000, Hops: 1, Apps: []string{"com.king.candycrushsaga"},
		}},
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Superseded == 0 {
		t.Fatal("a 100k/min single-app spam stream superseded nothing")
	}
	if res.Report.Completed+res.Report.Superseded != 50 {
		t.Fatalf("conservation broken: %d + %d != 50", res.Report.Completed, res.Report.Superseded)
	}
}

// BenchmarkFleet measures the engine's hot path: simulated events/sec
// on one thread and allocations per Reset+Run, on a 6,000-migration
// scaled spec and on the shipped 10k-device, 50k-migration spec. The
// engine's budget is ≥1M events/sec; TestRunSteadyStateAllocs asserts
// its 0 allocs.
func BenchmarkFleet(b *testing.B) {
	scale, err := LoadSpec("../../fleet/specs/scale-10k.yaml")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		spec Spec
	}{
		{"scaled-6000", ScaledSpec("bench", 300, 6000, 42)},
		{"scale-10k", scale},
	} {
		s, err := NewSim(bc.spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			var events uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Reset()
				s.Run()
				events += s.Events()
			}
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			}
			b.ReportMetric(float64(s.Events()), "events/run")
		})
	}
}
