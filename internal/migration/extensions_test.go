package migration_test

import (
	"errors"
	"testing"

	"flux/internal/android"
	"flux/internal/device"
	"flux/internal/migration"
)

func TestPostCopyShortensUserPerceivedTime(t *testing.T) {
	w1 := newWorld(t, spec())
	w1.runWorkload(t)
	normal, err := migration.New(w1.home, w1.guest, migration.Options{}).Migrate(pkg)
	if err != nil {
		t.Fatal(err)
	}
	w2 := newWorld(t, spec())
	w2.runWorkload(t)
	post, err := migration.New(w2.home, w2.guest, migration.Options{PostCopy: true}).Migrate(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if post.PostCopyResidualBytes <= 0 {
		t.Fatal("post-copy shipped no residual")
	}
	if post.Timings[migration.StageTransfer] >= normal.Timings[migration.StageTransfer] {
		t.Errorf("post-copy transfer stage %v not below %v",
			post.Timings[migration.StageTransfer], normal.Timings[migration.StageTransfer])
	}
	// Same bytes move overall.
	if post.TransferredBytes != normal.TransferredBytes {
		t.Errorf("post-copy moved %d bytes vs %d", post.TransferredBytes, normal.TransferredBytes)
	}
	// Correctness unaffected.
	if !post.StateConsistent() {
		t.Error("post-copy migration left inconsistent state")
	}
	// The user sees the app sooner: the blocking wait before the app is
	// usable shrinks (residual streams in the background).
	if post.Timings.UserPerceived() >= normal.Timings.UserPerceived() {
		t.Errorf("post-copy user-perceived %v not below %v",
			post.Timings.UserPerceived(), normal.Timings.UserPerceived())
	}
}

func TestCommonSDCardBlocksMigration(t *testing.T) {
	w := newWorld(t, spec())
	if _, err := w.app.OpenCommonSDFile("/sdcard/Music/album.mp3"); err != nil {
		t.Fatal(err)
	}
	_, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg)
	if !errors.Is(err, migration.ErrCommonSDCard) {
		t.Errorf("err = %v, want ErrCommonSDCard", err)
	}
}

func TestAppSpecificSDFileDoesNotBlock(t *testing.T) {
	w := newWorld(t, spec())
	fd, err := w.app.OpenCommonSDFile("/sdcard/Android/data/" + pkg + "/cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	_ = fd
	if _, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg); err != nil {
		t.Errorf("app-specific SD file blocked migration: %v", err)
	}
}

func TestMigratedAwayGuard(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	migrate(t, w)

	// The home install record points at the guest.
	if got := w.home.Installed(pkg).MigratedTo; got != w.guest.Name() {
		t.Fatalf("MigratedTo = %q", got)
	}
	// Starting the native app at home is refused.
	if _, err := migration.StartNative(w.home, spec()); !errors.Is(err, migration.ErrMigratedAway) {
		t.Fatalf("StartNative = %v, want ErrMigratedAway", err)
	}
}

func TestResolveConflictKeepRemote(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	migrate(t, w)
	// Keep the remote state: the app migrates back.
	if err := migration.ResolveConflict(w.home, w.guest, pkg, migration.ResolveKeepRemote); err != nil {
		t.Fatalf("ResolveConflict: %v", err)
	}
	if got := w.home.Installed(pkg).MigratedTo; got != "" {
		t.Errorf("MigratedTo after return = %q", got)
	}
	app := w.home.Runtime.App(pkg)
	if app == nil || app.SavedState()["scroll"] != "page-42" {
		t.Error("remote state lost on keep-remote resolution")
	}
}

func TestResolveConflictKeepLocal(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	migrate(t, w)
	if err := migration.ResolveConflict(w.home, w.guest, pkg, migration.ResolveKeepLocal); err != nil {
		t.Fatalf("ResolveConflict: %v", err)
	}
	if w.guest.Runtime.App(pkg) != nil {
		t.Error("remote instance survived keep-local resolution")
	}
	if got := w.guest.System.AppState(pkg); len(got) != 0 {
		t.Errorf("remote service state survived: %v", got)
	}
	// Native start now works (with whatever state is local).
	if _, err := migration.StartNative(w.home, spec()); err != nil {
		t.Errorf("StartNative after keep-local: %v", err)
	}
}

func TestResolveConflictWrongRemote(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	migrate(t, w)
	// A third device (different name) that does not hold the state.
	third, err := device.New(device.Nexus7_2013("third-tablet"))
	if err != nil {
		t.Fatal(err)
	}
	if err := migration.ResolveConflict(w.home, third, pkg, migration.ResolveKeepLocal); err == nil {
		t.Error("ResolveConflict accepted the wrong remote device")
	}
}

func TestMultiActivityStackSurvivesMigration(t *testing.T) {
	w := newWorld(t, spec())
	if _, err := w.home.Runtime.StartActivity(w.app, "DetailActivity"); err != nil {
		t.Fatal(err)
	}
	w.app.PutSavedState("detail-item", "row-7")
	rep := migrate(t, w)
	acts := rep.App.Activities()
	if len(acts) != 2 {
		t.Fatalf("restored stack has %d activities", len(acts))
	}
	if acts[0].Name != "MainActivity" || acts[1].Name != "DetailActivity" {
		t.Errorf("stack order = %s, %s", acts[0].Name, acts[1].Name)
	}
	top := rep.App.TopActivity()
	if top.Name != "DetailActivity" {
		t.Fatalf("top = %s", top.Name)
	}
	if top.State() != android.StateResumed {
		t.Errorf("top state = %v, want Resumed", top.State())
	}
	if got := top.Window().ViewRoot().DrawnFor(); got != w.guest.Runtime.Screen() {
		t.Errorf("top drawn for %v", got)
	}
	// Back navigation still works after migration.
	if err := w.guest.Runtime.BackPressed(rep.App); err != nil {
		t.Fatalf("BackPressed on guest: %v", err)
	}
	if rep.App.TopActivity().Name != "MainActivity" {
		t.Error("back navigation broken after migration")
	}
}
