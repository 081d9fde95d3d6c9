package record

import (
	"fmt"
	"sync"
	"testing"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/kernel"
)

// Concurrency tests for the sharded log, in the pattern of
// internal/binder/concurrency_test.go: hammer the hot paths from many
// goroutines and assert only deterministic aggregates. Run with -race.

// TestConcurrentAppendAcrossApps drives eight apps through the full
// recorder pipeline (Binder transaction → interposer → applyDrops →
// append) in parallel. Each app's workload is sequential within itself,
// so its final log content is deterministic even though apps interleave
// freely across shards.
func TestConcurrentAppendAcrossApps(t *testing.T) {
	driver := binder.NewDriver()
	clock := kernel.NewClock()
	sys, err := driver.OpenProc(1, 1000, "system_server")
	if err != nil {
		t.Fatal(err)
	}
	itf := aidl.MustParse(notifSrc)
	nop := func(call *binder.Call, args aidl.Args) error { return nil }
	disp := aidl.NewDispatcher(itf).
		Handle("enqueueNotification", nop).
		Handle("cancelNotification", nop).
		Handle("getActiveCount", nop)
	if _, err := binder.AddService(sys, "notification", itf.Name, disp); err != nil {
		t.Fatal(err)
	}

	const apps, perApp = 8, 40
	pidApp := make(map[int]string, apps)
	for i := 0; i < apps; i++ {
		pidApp[100+i] = fmt.Sprintf("conc.app%d", i)
	}
	rec := NewRecorder(NewLog(), Config{
		Now: clock.Now,
		PackageOf: func(pid int) (string, bool) {
			app, ok := pidApp[pid]
			return app, ok
		},
	})
	rec.RegisterInterface("notification", itf)
	driver.SetInterposer(rec)

	var wg sync.WaitGroup
	errs := make(chan error, apps)
	for i := 0; i < apps; i++ {
		p, err := driver.OpenProc(100+i, 10000+i, pidApp[100+i])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p *binder.Proc, i int) {
			defer wg.Done()
			c, err := aidl.NewClient(itf, p, "notification")
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < perApp; j++ {
				if _, err := c.Call("enqueueNotification", j, aidl.Object(fmt.Sprintf("n:%d/%d", i, j))); err != nil {
					errs <- err
					return
				}
				if j%2 == 1 {
					// Annihilate the pair: cancel drops the enqueue and
					// suppresses itself.
					if _, err := c.Call("cancelNotification", j); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(p, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Each app enqueued perApp notifications and cancelled the odd half.
	wantPerApp := perApp / 2
	for i := 0; i < apps; i++ {
		app := pidApp[100+i]
		got := rec.Log().AppEntries(app)
		if len(got) != wantPerApp {
			t.Errorf("%s: %d surviving entries, want %d", app, len(got), wantPerApp)
		}
		want := 0
		for _, e := range got {
			if e.Method != "enqueueNotification" {
				t.Errorf("%s: unexpected surviving method %s", app, e.Method)
			}
			want += e.Size()
		}
		if sz := rec.Log().SizeBytes(app); sz != want {
			t.Errorf("%s: SizeBytes = %d, want %d", app, sz, want)
		}
	}
	if got, want := rec.Log().Len(), apps*wantPerApp; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	if got := rec.Log().DroppedTotal(); got != uint64(apps*(perApp/2)) {
		t.Errorf("DroppedTotal = %d, want %d", got, apps*(perApp/2))
	}
}

// TestConcurrentAppendPruneExtract races raw log operations — Append,
// PruneMatching, AppEntries, MarshalApp, SizeBytes, Len, DropApp — across
// apps with no coordination beyond the log itself. Assertions are
// per-app invariants that hold under any interleaving.
func TestConcurrentAppendPruneExtract(t *testing.T) {
	l := NewLog()
	const apps, writers, ops = 4, 2, 200
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		app := fmt.Sprintf("raw.app%d", a)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(app string, w int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					l.Append(&Entry{
						App:       app,
						Interface: "I",
						Method:    fmt.Sprintf("m%d", i%3),
						Data:      []byte{byte(i)},
					})
					if i%10 == 9 {
						l.PruneMatching(app, "I", []string{"m0"}, func(e *Entry) bool { return true })
					}
				}
			}(app, w)
		}
		// One reader per app exercising extraction while writers run.
		wg.Add(1)
		go func(app string) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				entries := l.AppEntries(app)
				for j := 1; j < len(entries); j++ {
					if entries[j].Seq <= entries[j-1].Seq {
						t.Errorf("%s: AppEntries out of seq order", app)
						return
					}
				}
				_ = l.MarshalApp(app)
				_ = l.SizeBytes(app)
				_ = l.Len()
			}
		}(app)
	}
	wg.Wait()

	total := 0
	for a := 0; a < apps; a++ {
		app := fmt.Sprintf("raw.app%d", a)
		entries := l.AppEntries(app)
		want := 0
		for _, e := range entries {
			if e.Method == "m0" {
				// A final sweep proves the index still finds leftovers.
				continue
			}
			want += e.Size()
		}
		removed := l.PruneMatching(app, "I", []string{"m0"}, func(e *Entry) bool { return true })
		if sz := l.SizeBytes(app); sz != want {
			t.Errorf("%s: SizeBytes = %d, want %d after pruning %d leftovers", app, sz, want, removed)
		}
		// Round-trip the survivors through the wire format.
		back, err := UnmarshalEntries(l.MarshalApp(app))
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if len(back) != len(l.AppEntries(app)) {
			t.Errorf("%s: wire round trip %d != %d live", app, len(back), len(l.AppEntries(app)))
		}
		total += len(back)
	}
	if got := l.Len(); got != total {
		t.Errorf("Len = %d, want %d", got, total)
	}
	// Cleanup accounting: DropApp removes the rest without touching the
	// pruning statistic.
	pruned := l.DroppedTotal()
	for a := 0; a < apps; a++ {
		l.DropApp(fmt.Sprintf("raw.app%d", a))
	}
	if got := l.Len(); got != 0 {
		t.Errorf("Len after DropApp sweep = %d, want 0", got)
	}
	if got := l.DroppedTotal(); got != pruned {
		t.Errorf("DroppedTotal changed from %d to %d during cleanup", pruned, got)
	}
	if got := l.CleanupDropped(); got != uint64(total) {
		t.Errorf("CleanupDropped = %d, want %d", got, total)
	}
}

// TestConcurrentPauseResumeAndRegister races recorder control-plane
// operations (Pause/Resume/SetFullRecord/Stats) against recording
// traffic, guarding the RWMutex conversion.
func TestConcurrentPauseResumeAndRegister(t *testing.T) {
	f := newFixture(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			f.rec.Pause("other.app")
			f.rec.Resume("other.app")
			f.rec.SetFullRecord("INotificationManager", i%2 == 0)
			f.rec.Stats()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := f.notif.Call("enqueueNotification", i, aidl.Object("n:x")); err != nil {
				t.Errorf("call: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	f.rec.SetFullRecord("INotificationManager", false)
	if got := len(f.rec.Log().AppEntries("com.example.app")); got != 100 {
		t.Errorf("recorded %d entries, want 100", got)
	}
}

// TestSnapshotIsPointInTime pins the SaveFile consistency fix: a
// Snapshot taken while appends are in flight must be a state the log
// actually occupied. Because sequence numbers are issued by one global
// counter, a consistent cut contains exactly the sequences 1..max with
// no gaps; the old per-shard-at-a-time marshal could capture seq N
// from one shard while missing seq N-1 still being appended to another.
func TestSnapshotIsPointInTime(t *testing.T) {
	l := NewLog()
	const total = 4000
	apps := []string{"snap.a", "snap.b", "snap.c"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			l.Append(&Entry{App: apps[i%len(apps)], Interface: "I", Method: "m"})
		}
	}()
	check := func(snap []*Entry) uint64 {
		t.Helper()
		seen := make(map[uint64]bool, len(snap))
		var max uint64
		for i, e := range snap {
			if i > 0 && e.Seq <= snap[i-1].Seq {
				t.Fatalf("snapshot not in sequence order at %d", i)
			}
			seen[e.Seq] = true
			if e.Seq > max {
				max = e.Seq
			}
		}
		if uint64(len(seen)) != max {
			t.Fatalf("snapshot has %d entries but max seq %d: not a point-in-time cut", len(seen), max)
		}
		return max
	}
	for {
		check(l.Snapshot())
		select {
		case <-done:
			// A snapshot taken after the appender is done sees everything.
			if max := check(l.Snapshot()); max != total {
				t.Fatalf("final snapshot has max seq %d, want %d", max, total)
			}
			return
		default:
		}
	}
}
