package device_test

import (
	"fmt"
	"sync"
	"testing"

	"flux/internal/apps"
	"flux/internal/device"
	"flux/internal/experiments"
	"flux/internal/migration"
	"flux/internal/pairing"
)

// TestParallelPairsShareTables boots one device pair per Figure 12 pair
// on parallel goroutines. On each pair every migratable app launches and
// runs its Table 3 workload twice, so the @drop rules fire against calls
// already recorded, and then one app migrates with a verified log and is
// replayed on the guest. Every Recorder, Dispatcher and replay Engine
// reads the same process-wide tables aidl.Parse compiled, so under -race
// (make race) this checks that those tables are only ever read. It also
// shows that concurrent boots only read a shared system partition: three
// pairs boot a Nexus 7 (2013) guest, and pairing reads that one tree as
// each pair's link-dest.
func TestParallelPairsShareTables(t *testing.T) {
	pairs := experiments.Figure12Pairs()
	if len(pairs) < 4 {
		t.Fatalf("want at least 4 pairs, have %d", len(pairs))
	}
	catalog := apps.Migratable()
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, p experiments.Pair) {
			defer wg.Done()
			errs[i] = runPair(p, catalog, catalog[i%len(catalog)])
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", pairs[i].Name, err)
		}
	}
}

// runPair boots p, runs every app's workload on the home device, and
// migrates mover, which it launches last so it is in the foreground.
func runPair(p experiments.Pair, catalog []apps.App, mover apps.App) error {
	home, err := device.New(p.Home("home"))
	if err != nil {
		return err
	}
	guest, err := device.New(p.Guest("guest"))
	if err != nil {
		return err
	}
	var order []apps.App
	for _, a := range catalog {
		if a.Spec.Package != mover.Spec.Package {
			order = append(order, a)
		}
	}
	order = append(order, mover)
	var pkgs []string
	for _, a := range order {
		if err := apps.Install(home, a); err != nil {
			return err
		}
		pkgs = append(pkgs, a.Spec.Package)
	}
	if _, err := pairing.Pair(home, guest, pkgs); err != nil {
		return err
	}
	for _, a := range order {
		s, err := apps.Launch(home, a)
		if err != nil {
			return err
		}
		if err := a.Run(s); err != nil {
			return fmt.Errorf("%s second run: %w", a.Spec.Label, err)
		}
	}
	rep, err := migration.New(home, guest, migration.Options{VerifyLog: true}).Migrate(mover.Spec.Package)
	if err != nil {
		return fmt.Errorf("migrating %s: %w", mover.Spec.Label, err)
	}
	if !rep.StateConsistent() {
		return fmt.Errorf("migrating %s: service state diverged", mover.Spec.Label)
	}
	if rep.ReplayStats.Total() == 0 {
		return fmt.Errorf("migrating %s: replayed no log entries", mover.Spec.Label)
	}
	return nil
}
