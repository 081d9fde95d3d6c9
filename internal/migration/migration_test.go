package migration_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flux/internal/aidl"
	"flux/internal/android"
	"flux/internal/binder"
	"flux/internal/device"
	"flux/internal/migration"
	"flux/internal/pairing"
	"flux/internal/record"
	"flux/internal/rsyncx"
	"flux/internal/services"
)

const pkg = "com.example.reader"

// world is a two-device test environment with one installed app.
type world struct {
	home, guest *device.Device
	app         *android.App
}

func spec() android.AppSpec {
	return android.AppSpec{
		Package:           pkg,
		Label:             "Reader",
		MainActivity:      "MainActivity",
		Views:             []string{"toolbar", "content"},
		HeapBytes:         8 << 20,
		HeapEntropy:       0.45,
		TextureCacheBytes: 3 << 20,
	}
}

func install(t *testing.T, d *device.Device, s android.AppSpec) {
	t.Helper()
	data := rsyncx.NewTree()
	data.Add(rsyncx.File{Path: "/data/data/" + s.Package + "/db", Size: 200 << 10,
		Hash: device.HashContent(s.Package, "db", "v1"), Entropy: 0.4})
	err := d.InstallApp(&device.Install{
		Spec: s,
		APK: rsyncx.File{Path: "/data/app/" + s.Package + ".apk", Size: 5 << 20,
			Hash: device.HashContent(s.Package, "apk", "v1"), Entropy: 0.95},
		DataDir: data,
	})
	if err != nil {
		t.Fatalf("InstallApp: %v", err)
	}
}

func newWorld(t *testing.T, s android.AppSpec) *world {
	t.Helper()
	home, err := device.New(device.Nexus4("home-n4"))
	if err != nil {
		t.Fatal(err)
	}
	guest, err := device.New(device.Nexus7_2013("guest-n7"))
	if err != nil {
		t.Fatal(err)
	}
	install(t, home, s)
	if _, err := pairing.Pair(home, guest, []string{s.Package}); err != nil {
		t.Fatalf("Pair: %v", err)
	}
	app, err := home.Runtime.Launch(s)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return &world{home: home, guest: guest, app: app}
}

// client builds a service client from the app's process.
func (w *world) client(t *testing.T, itf *aidl.Interface, name string) *aidl.Client {
	t.Helper()
	c, err := aidl.NewClient(itf, w.app.Process().Binder(), name)
	if err != nil {
		t.Fatalf("client %s: %v", name, err)
	}
	return c
}

func (w *world) call(t *testing.T, c *aidl.Client, method string, args ...any) {
	t.Helper()
	if _, err := c.Call(method, args...); err != nil {
		t.Fatalf("%s.%s: %v", c.Itf.Name, method, err)
	}
}

// runWorkload exercises a representative slice of decorated services.
func (w *world) runWorkload(t *testing.T) {
	t.Helper()
	notif := w.client(t, services.NotificationInterface, "notification")
	w.call(t, notif, "enqueueNotification", 1, aidl.Object("n:unread-mail"))
	w.call(t, notif, "enqueueNotification", 2, aidl.Object("n:download"))
	w.call(t, notif, "cancelNotification", 2) // acknowledged → must not reappear

	alarm := w.client(t, services.AlarmInterface, "alarm")
	future := w.home.Kernel.Clock().Now().Add(2 * time.Hour).UnixMilli()
	w.call(t, alarm, "set", 0, future, aidl.Object("pi:daily-sync"))

	audio := w.client(t, services.AudioInterface, "audio")
	w.call(t, audio, "setStreamVolume", int(services.StreamMusic), 9, 0) // 9/15

	clip := w.client(t, services.ClipboardInterface, "clipboard")
	w.call(t, clip, "setPrimaryClip", aidl.Object("verse 3:16"))

	ams := w.client(t, services.ActivityInterface, "activity")
	w.call(t, ams, "registerReceiver", "com.example.SYNC_DONE")

	power := w.client(t, services.PowerInterface, "power")
	w.call(t, power, "acquireWakeLock", "reading", 1)

	loc := w.client(t, services.LocationInterface, "location")
	w.call(t, loc, "requestLocationUpdates", "network", int64(60000), 100.0)

	// Sensors: connection + enabled accelerometer + event channel.
	sensor := w.client(t, services.SensorInterface, "sensorservice")
	reply, err := sensor.Call("createSensorEventConnection", pkg)
	if err != nil {
		t.Fatal(err)
	}
	connHandle, err := reply.HandleAt(0)
	if err != nil {
		t.Fatal(err)
	}
	conn := &aidl.Client{Itf: services.SensorConnectionInterface, Proc: w.app.Process().Binder(), Handle: connHandle}
	w.call(t, conn, "enableSensor", int(services.SensorAccelerometer), true, 20000)
	chReply, err := conn.Call("getSensorChannel")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := chReply.FDAt(0)
	if err != nil {
		t.Fatal(err)
	}
	w.app.PutSavedState("sensor.fd", fmt.Sprintf("%d", fd))
	w.app.PutSavedState("sensor.handle", fmt.Sprintf("%d", connHandle))
	w.app.PutSavedState("scroll", "page-42")
}

func migrate(t *testing.T, w *world) *migration.Report {
	t.Helper()
	rep, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	return rep
}

func TestMigrationEndToEnd(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	rep := migrate(t, w)

	// Service state on the guest matches the home state at checkpoint.
	if !rep.StateConsistent() {
		t.Errorf("state mismatch:\n  before: %v\n  after:  %v", rep.StateBefore, rep.StateAfter)
	}
	// The acknowledged notification is gone; the live one survived.
	if _, ok := rep.StateAfter["notification/notif.2"]; ok {
		t.Error("cancelled notification reappeared on the guest")
	}
	if rep.StateAfter["notification/notif.1"] != "n:unread-mail" {
		t.Errorf("surviving notification = %v", rep.StateAfter)
	}
	// Volume was rescaled: 9/15 on the N4 → 18/30 on the N7 (same fraction).
	if got := w.guest.System.Audio.StreamVolume(services.StreamMusic); got != 18 {
		t.Errorf("guest volume index = %d, want 18", got)
	}
	// Saved state and UI geometry.
	app := rep.App
	if app.SavedState()["scroll"] != "page-42" {
		t.Error("saved state lost in migration")
	}
	if got := app.MainActivity().Window().ViewRoot().DrawnFor(); got != w.guest.Runtime.Screen() {
		t.Errorf("UI drawn for %v, want guest screen %v", got, w.guest.Runtime.Screen())
	}
	if app.GL().Hardware().Model != w.guest.Profile().GPU.Model {
		t.Error("restored app not using guest GPU library")
	}
	// The app saw a connectivity interruption and the new network.
	events := app.ConnectivityEvents()
	if len(events) < 2 || events[len(events)-2] != "lost" {
		t.Errorf("connectivity events = %v", events)
	}
	// Sensor connection handle and channel fd survived numerically.
	var wantHandle, wantFD int
	fmt.Sscanf(app.SavedState()["sensor.handle"], "%d", &wantHandle)
	fmt.Sscanf(app.SavedState()["sensor.fd"], "%d", &wantFD)
	conns := w.guest.System.Sensors.Connections(pkg)
	if len(conns) != 1 {
		t.Fatalf("guest sensor connections = %d", len(conns))
	}
	if got := conns[0].ChannelFD(); got != wantFD {
		t.Errorf("sensor channel fd = %d, want %d", got, wantFD)
	}
	node, err := app.Process().Binder().Node(binder.Handle(wantHandle))
	if err != nil || node != conns[0].Node() {
		t.Errorf("sensor connection not at original handle %d: %v", wantHandle, err)
	}
	if app.Process().FD(wantFD) == nil {
		t.Errorf("fd %d missing from restored table", wantFD)
	}
	// The app keeps its pid (virtually).
	if app.Process().VPID() == app.Process().PID() && app.Process().Namespace() == nil {
		t.Error("restored app not in a private PID namespace")
	}
	// Home side is clean.
	if w.home.Runtime.App(pkg) != nil {
		t.Error("app still running on home after migration")
	}
	if got := w.home.System.AppState(pkg); len(got) != 0 {
		t.Errorf("home service state not forgotten: %v", got)
	}
	if w.home.Kernel.Wakelocks.AnyHeld() {
		t.Error("home still holds the app's wakelock")
	}
	if !w.guest.Kernel.Wakelocks.AnyHeld() {
		t.Error("guest did not re-acquire the app's wakelock")
	}
	// Log moved: home's slice dropped, guest re-recorded during replay.
	if got := w.home.Recorder.Log().AppEntries(pkg); len(got) != 0 {
		t.Errorf("home record log not dropped: %d entries", len(got))
	}
	if got := w.guest.Recorder.Log().AppEntries(pkg); len(got) == 0 {
		t.Error("guest record log empty after replay; migrating back would lose state")
	}
}

func TestMigrationTimingsShape(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	rep := migrate(t, w)
	tt := rep.Timings
	if tt.Total() <= 0 {
		t.Fatal("zero total time")
	}
	// Transfer dominates (Figure 13's shape).
	if frac := float64(tt[migration.StageTransfer]) / float64(tt.Total()); frac < 0.3 {
		t.Errorf("transfer fraction = %.2f, expected dominant", frac)
	}
	if tt.UserPerceived() >= tt.Total() {
		t.Error("user-perceived time should exclude prep+checkpoint")
	}
	if tt.ExcludingTransfer() >= tt.UserPerceived() {
		t.Error("excluding-transfer should be below user-perceived")
	}
	if rep.TransferredBytes <= 0 || rep.CompressedImageBytes <= 0 {
		t.Errorf("transfer accounting: %+v", rep)
	}
	if rep.CompressedImageBytes >= rep.ImageBytes+rep.RecordLogBytes+4096 {
		t.Errorf("compression did not shrink image: %d vs %d", rep.CompressedImageBytes, rep.ImageBytes)
	}
}

func TestMigrateUnpairedFails(t *testing.T) {
	home, _ := device.New(device.Nexus4("h"))
	guest, _ := device.New(device.Nexus7_2013("g"))
	install(t, home, spec())
	if _, err := home.Runtime.Launch(spec()); err != nil {
		t.Fatal(err)
	}
	_, err := migration.New(home, guest, migration.Options{}).Migrate(pkg)
	if !errors.Is(err, migration.ErrNotPaired) {
		t.Errorf("err = %v, want ErrNotPaired", err)
	}
}

func TestMigrateNotRunningFails(t *testing.T) {
	home, _ := device.New(device.Nexus4("h"))
	guest, _ := device.New(device.Nexus7_2013("g"))
	install(t, home, spec())
	if _, err := pairing.Pair(home, guest, []string{pkg}); err != nil {
		t.Fatal(err)
	}
	_, err := migration.New(home, guest, migration.Options{}).Migrate(pkg)
	if !errors.Is(err, migration.ErrNotRunning) {
		t.Errorf("err = %v, want ErrNotRunning", err)
	}
}

func TestSubwaySurfersPreservedEGLRefused(t *testing.T) {
	s := spec()
	s.Package = "com.kiloo.subwaysurf"
	s.PreserveEGLContext = true
	home, _ := device.New(device.Nexus4("h"))
	guest, _ := device.New(device.Nexus7_2013("g"))
	installSpec := func(d *device.Device) {
		t.Helper()
		data := rsyncx.NewTree()
		d.InstallApp(&device.Install{Spec: s,
			APK: rsyncx.File{Path: "/a.apk", Size: 1 << 20, Hash: 1, Entropy: 0.9}, DataDir: data})
	}
	installSpec(home)
	if _, err := pairing.Pair(home, guest, []string{s.Package}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.Runtime.Launch(s); err != nil {
		t.Fatal(err)
	}
	_, err := migration.New(home, guest, migration.Options{}).Migrate(s.Package)
	if !errors.Is(err, migration.ErrPreserveEGL) {
		t.Errorf("err = %v, want ErrPreserveEGL", err)
	}
}

func TestFacebookMultiProcessRefused(t *testing.T) {
	s := spec()
	s.Package = "com.facebook.katana"
	s.ExtraProcesses = 2
	home, _ := device.New(device.Nexus4("h"))
	guest, _ := device.New(device.Nexus7_2013("g"))
	home.InstallApp(&device.Install{Spec: s,
		APK: rsyncx.File{Path: "/fb.apk", Size: 30 << 20, Hash: 2, Entropy: 0.95}})
	if _, err := pairing.Pair(home, guest, []string{s.Package}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.Runtime.Launch(s); err != nil {
		t.Fatal(err)
	}
	_, err := migration.New(home, guest, migration.Options{}).Migrate(s.Package)
	if !errors.Is(err, migration.ErrMultiProcess) {
		t.Errorf("err = %v, want ErrMultiProcess", err)
	}
	// The future-work extension migrates it.
	rep, err := migration.New(home, guest, migration.Options{AllowMultiProcess: true}).Migrate(s.Package)
	if err != nil {
		t.Fatalf("AllowMultiProcess migrate: %v", err)
	}
	if rep.App == nil {
		t.Error("no restored app")
	}
}

// TestRefusalKeepsHomeForeground: a refusal found after preparation has
// moved the app to the background (Subway Surfers' preserved EGL context
// in the trim step, Facebook's extra processes at the checkpoint) still
// returns the app to the foreground, and the error is unchanged.
func TestRefusalKeepsHomeForeground(t *testing.T) {
	for _, tc := range []struct {
		pkg  string
		edit func(*android.AppSpec)
		want error
	}{
		{"com.kiloo.subwaysurf", func(s *android.AppSpec) { s.PreserveEGLContext = true }, migration.ErrPreserveEGL},
		{"com.facebook.katana", func(s *android.AppSpec) { s.ExtraProcesses = 2 }, migration.ErrMultiProcess},
	} {
		t.Run(tc.pkg, func(t *testing.T) {
			s := spec()
			s.Package = tc.pkg
			tc.edit(&s)
			w := newWorld(t, s)
			rep, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(tc.pkg)
			if rep != nil || !errors.Is(err, tc.want) {
				t.Fatalf("Migrate = (%v, %v), want a refusal with %v", rep, err, tc.want)
			}
			if act := w.app.TopActivity(); act == nil || act.State() != android.StateResumed {
				t.Error("home app not foregrounded after the refusal")
			}
		})
	}
}

func TestProviderBusyRefused(t *testing.T) {
	w := newWorld(t, spec())
	w.app.BeginProviderUse()
	_, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg)
	if !errors.Is(err, migration.ErrProviderBusy) {
		t.Errorf("err = %v, want ErrProviderBusy", err)
	}
	w.app.EndProviderUse()
	if _, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg); err != nil {
		t.Errorf("migrate after provider done: %v", err)
	}
}

func TestAPILevelGateRefused(t *testing.T) {
	s := spec()
	s.APIKLevel = 21 // Lollipop app on KitKat devices
	home, _ := device.New(device.Nexus4("h"))
	guest, _ := device.New(device.Nexus7_2013("g"))
	home.InstallApp(&device.Install{Spec: s, APK: rsyncx.File{Path: "/x.apk", Size: 1, Hash: 3}})
	if _, err := pairing.Pair(home, guest, []string{s.Package}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.Runtime.Launch(s); err != nil {
		t.Fatal(err)
	}
	_, err := migration.New(home, guest, migration.Options{}).Migrate(s.Package)
	if !errors.Is(err, migration.ErrAPILevel) {
		t.Errorf("err = %v, want ErrAPILevel", err)
	}
}

func TestNonSystemBinderConnectionRefused(t *testing.T) {
	w := newWorld(t, spec())
	// Another (non-system) app publishes a service; the migrating app holds
	// a reference to it.
	other, err := w.home.Runtime.Launch(android.AppSpec{
		Package: "com.other.app", MainActivity: "M", HeapBytes: 1 << 20, HeapEntropy: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := other.Process().Binder().Publish("IPrivateChannel", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.app.Process().Binder().Ref(node); err != nil {
		t.Fatal(err)
	}
	_, err = migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg)
	if !errors.Is(err, migration.ErrNonSystemBinder) {
		t.Errorf("err = %v, want ErrNonSystemBinder", err)
	}
}

func TestAlarmSemanticsAcrossMigration(t *testing.T) {
	w := newWorld(t, spec())
	alarm := w.client(t, services.AlarmInterface, "alarm")
	clock := w.home.Kernel.Clock()

	// Alarm A fires before migration: must not re-fire on the guest.
	w.call(t, alarm, "set", 0, clock.Now().Add(time.Minute).UnixMilli(), aidl.Object("pi:A"))
	// Alarm B fires long after migration: must be re-set on the guest.
	w.call(t, alarm, "set", 0, clock.Now().Add(3*time.Hour).UnixMilli(), aidl.Object("pi:B"))
	clock.Advance(2 * time.Minute) // A fires at home

	rep := migrate(t, w)
	pending := w.guest.System.Alarms.Pending(pkg)
	if _, ok := pending["pi:A"]; ok {
		t.Error("already-fired alarm re-set on guest")
	}
	if _, ok := pending["pi:B"]; !ok {
		t.Errorf("future alarm lost in migration: %v", pending)
	}
	if rep.ReplayStats.SkippedExpired == 0 {
		t.Error("replay did not time-filter the fired alarm")
	}
	// B fires on the guest at its original trigger time.
	before := len(rep.App.IntentsSeen())
	w.guest.Kernel.Clock().Advance(4 * time.Hour)
	fired := false
	for _, in := range rep.App.IntentsSeen()[before:] {
		if in == fmt.Sprintf("intent{%s → %s}", android.ActionAlarmFired, pkg) {
			fired = true
		}
	}
	if !fired {
		t.Error("future alarm did not fire on the guest")
	}
}

func TestAlarmDueMidMigrationStillFires(t *testing.T) {
	w := newWorld(t, spec())
	alarm := w.client(t, services.AlarmInterface, "alarm")
	// Due 2 seconds from now: migration takes longer than that, so the
	// trigger passes mid-flight. The proxy compares against checkpoint
	// time, so the alarm must still be set — and fire — on the guest.
	due := w.home.Kernel.Clock().Now().Add(2 * time.Second).UnixMilli()
	w.call(t, alarm, "set", 0, due, aidl.Object("pi:midflight"))

	rep := migrate(t, w)
	if rep.Timings.Total() < 2*time.Second {
		t.Skip("migration finished faster than the alarm window; cannot exercise mid-flight case")
	}
	w.guest.Kernel.Clock().Advance(time.Millisecond)
	fired := false
	for _, in := range rep.App.IntentsSeen() {
		if in == fmt.Sprintf("intent{%s → %s}", android.ActionAlarmFired, pkg) {
			fired = true
		}
	}
	if !fired {
		t.Error("mid-migration alarm lost")
	}
}

func TestMigrateBackRoundTrip(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	rep1 := migrate(t, w)
	stateOnGuest := w.guest.System.AppState(pkg)

	// Migrate back: guest → home.
	back := migration.New(w.guest, w.home, migration.Options{})
	rep2, err := back.Migrate(pkg)
	if err != nil {
		t.Fatalf("migrate back: %v", err)
	}
	if !rep2.StateConsistent() {
		t.Errorf("return-trip state mismatch:\n  guest: %v\n  home:  %v", rep2.StateBefore, rep2.StateAfter)
	}
	_ = rep1
	_ = stateOnGuest
	// The app is home again, UI sized for the phone.
	app := w.home.Runtime.App(pkg)
	if app == nil {
		t.Fatal("app not running on home after return trip")
	}
	if got := app.MainActivity().Window().ViewRoot().DrawnFor(); got != w.home.Runtime.Screen() {
		t.Errorf("UI drawn for %v after return, want %v", got, w.home.Runtime.Screen())
	}
	if w.guest.Runtime.App(pkg) != nil {
		t.Error("app still running on guest after return trip")
	}
}

func TestHeterogeneousKernelAndGPU(t *testing.T) {
	// Nexus 7 (2012) → Nexus 4: different SoC, GPU, kernel version, screen.
	home, _ := device.New(device.Nexus7_2012("old-n7"))
	guest, _ := device.New(device.Nexus4("n4"))
	s := spec()
	data := rsyncx.NewTree()
	home.InstallApp(&device.Install{Spec: s,
		APK: rsyncx.File{Path: "/r.apk", Size: 3 << 20, Hash: 9, Entropy: 0.9}, DataDir: data})
	if _, err := pairing.Pair(home, guest, []string{pkg}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.Runtime.Launch(s); err != nil {
		t.Fatal(err)
	}
	rep, err := migration.New(home, guest, migration.Options{}).Migrate(pkg)
	if err != nil {
		t.Fatalf("heterogeneous migrate: %v", err)
	}
	if home.Kernel.Version() == guest.Kernel.Version() {
		t.Fatal("test premise broken: same kernel version")
	}
	if rep.App.GL().Hardware().Model != "Adreno 320" {
		t.Errorf("restored GL on %s", rep.App.GL().Hardware().Model)
	}
	if got := rep.App.MainActivity().Window().Surface().Bytes; got != guest.Runtime.Screen().PixelBytes() {
		t.Errorf("surface bytes = %d", got)
	}
}

func TestRecordingPausedDuringMigration(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	before := w.home.Recorder.Stats().Observed
	migrate(t, w)
	after := w.home.Recorder.Stats().Observed
	// Replay happens on the guest; home must not have observed new calls
	// attributable to the migrating app (its recording was paused and the
	// app then killed).
	if after != before {
		t.Errorf("home recorder observed %d calls during migration", after-before)
	}
}

func TestCompressionAblation(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	raw, err := migration.New(w.home, w.guest, migration.Options{SkipCompression: true}).Migrate(pkg)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh world for the compressed run (migration is destructive).
	w2 := newWorld(t, spec())
	w2.runWorkload(t)
	comp, err := migration.New(w2.home, w2.guest, migration.Options{}).Migrate(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if raw.TransferredBytes <= comp.TransferredBytes {
		t.Errorf("compression did not reduce transfer: raw=%d comp=%d",
			raw.TransferredBytes, comp.TransferredBytes)
	}
	if raw.Timings[migration.StageTransfer] <= comp.Timings[migration.StageTransfer] {
		t.Error("compression did not reduce transfer time")
	}
}

// appendWifiEntry puts a setWifiEnabled entry with the given request
// bytes on handle h straight into the home log, as a corrupted or forged
// log would carry it.
func (w *world) appendWifiEntry(h binder.Handle, data []byte) {
	m := services.WifiInterface.Method("setWifiEnabled")
	w.home.Recorder.Log().Append(&record.Entry{
		App: pkg, Service: "wifi", Interface: services.WifiInterface.Name,
		Method: m.Name, Code: m.Code, Handle: h,
		At: w.home.Kernel.Clock().Now(), Data: data,
	})
}

// TestRollbackOnReplayError: a well-formed entry on a handle the app
// never held fails replay after the checkpoint. The migration rolls back
// with the cause in its error, so no guest instance is left running and
// the home app returns to the foreground.
func TestRollbackOnReplayError(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	data, err := aidl.MarshalCallArgs(services.WifiInterface.Method("setWifiEnabled"), true)
	if err != nil {
		t.Fatal(err)
	}
	w.appendWifiEntry(999, data.Marshal())
	rep, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg)
	assertRolledBack(t, w, rep, err)
	if !strings.Contains(err.Error(), "bad handle: 999") {
		t.Errorf("rollback error does not name the cause: %v", err)
	}
}

// TestRollbackOnShortParcel: an entry whose request parcel lacks its
// method's argument, on the app's real wifi handle, rolls back instead
// of panicking in the wifi service's dispatch code.
func TestRollbackOnShortParcel(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	wifi := w.client(t, services.WifiInterface, "wifi")
	w.appendWifiEntry(wifi.Handle, binder.NewParcel().Marshal())
	rep, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg)
	assertRolledBack(t, w, rep, err)
	if !strings.Contains(err.Error(), "setWifiEnabled takes 1 args, parcel holds 0 entries") {
		t.Errorf("rollback error does not name the cause: %v", err)
	}
}

// TestRollbackOnMalformedRecordedReply: the sensor proxies rebuild state
// from the reply the home device recorded, which a CRC-clean image can
// still carry malformed. A connection reply without its handle, or a
// channel reply holding a string where the fd belongs, fails replay and
// rolls back instead of panicking in the proxy.
func TestRollbackOnMalformedRecordedReply(t *testing.T) {
	notFD := binder.NewParcel()
	notFD.WriteString("fd")
	for _, tc := range []struct {
		itf             *aidl.Interface
		service, method string
		args            []any
		reply           *binder.Parcel
	}{
		{services.SensorInterface, "sensorservice", "createSensorEventConnection", []any{pkg}, binder.NewParcel()},
		{services.SensorConnectionInterface, "sensorservice.connection", "getSensorChannel", nil, notFD},
	} {
		t.Run(tc.method, func(t *testing.T) {
			w := newWorld(t, spec())
			w.runWorkload(t)
			var h binder.Handle
			if tc.itf == services.SensorInterface {
				h = w.client(t, tc.itf, tc.service).Handle
			} else {
				fmt.Sscanf(w.app.SavedState()["sensor.handle"], "%d", &h)
			}
			m := tc.itf.Method(tc.method)
			data, err := aidl.MarshalCallArgs(m, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			w.home.Recorder.Log().Append(&record.Entry{
				App: pkg, Service: tc.service, Interface: tc.itf.Name,
				Method: m.Name, Code: m.Code, Handle: h,
				At: w.home.Kernel.Clock().Now(), Data: data.Marshal(), Reply: tc.reply.Marshal(),
			})
			rep, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg)
			assertRolledBack(t, w, rep, err)
			if !strings.Contains(err.Error(), tc.method+" entry") || !strings.Contains(err.Error(), "reply") {
				t.Errorf("rollback error does not name the entry and its reply: %v", err)
			}
		})
	}
}

// TestGuestRunningAppRefused: a guest that already runs the app is
// refused before the checkpoint, so the migration cannot roll back, and
// so wipe, the guest's own instance and its service state; the home app
// stays in the foreground.
func TestGuestRunningAppRefused(t *testing.T) {
	w := newWorld(t, spec())
	w.runWorkload(t)
	native, err := w.guest.Runtime.Launch(spec())
	if err != nil {
		t.Fatal(err)
	}
	notif, err := aidl.NewClient(services.NotificationInterface, native.Process().Binder(), "notification")
	if err != nil {
		t.Fatal(err)
	}
	w.call(t, notif, "enqueueNotification", 5, aidl.Object("n:guest-native"))
	before := w.guest.System.AppState(pkg)

	rep, err := migration.New(w.home, w.guest, migration.Options{}).Migrate(pkg)
	if err == nil || rep != nil || errors.Is(err, migration.ErrRolledBack) {
		t.Fatalf("Migrate = (%v, %v), want a refusal", rep, err)
	}
	if w.guest.Runtime.App(pkg) != native {
		t.Error("guest lost its own instance")
	}
	if after := w.guest.System.AppState(pkg); len(after) == 0 || len(after) != len(before) {
		t.Errorf("guest service state changed: %v -> %v", before, after)
	}
	if act := w.app.TopActivity(); act == nil || act.State() != android.StateResumed {
		t.Error("home app left the foreground")
	}
}
