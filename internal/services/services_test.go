package services_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"flux/internal/aidl"
	"flux/internal/android"
	"flux/internal/binder"
	"flux/internal/device"
	"flux/internal/kernel"
	"flux/internal/services"
)

// fixture boots a Nexus 4 and launches one app with service clients.
type fixture struct {
	dev *device.Device
	app *android.App
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	dev, err := device.New(device.Nexus4("home"))
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	app, err := dev.Runtime.Launch(android.AppSpec{
		Package:      "com.example.app",
		MainActivity: "Main",
		Views:        []string{"root"},
		HeapBytes:    4 << 20,
		HeapEntropy:  0.5,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return &fixture{dev: dev, app: app}
}

func (f *fixture) client(t testing.TB, itf *aidl.Interface, name string) *aidl.Client {
	t.Helper()
	c, err := aidl.NewClient(itf, f.app.Process().Binder(), name)
	if err != nil {
		t.Fatalf("NewClient(%s): %v", name, err)
	}
	return c
}

func (f *fixture) call(t *testing.T, c *aidl.Client, method string, args ...any) *aidl.Client {
	t.Helper()
	if _, err := c.Call(method, args...); err != nil {
		t.Fatalf("%s.%s: %v", c.Itf.Name, method, err)
	}
	return c
}

// TestCatalogHasAll22Services checks the shared Table 2 rows, and that a
// booted device registers each row's service under its descriptor.
func TestCatalogHasAll22Services(t *testing.T) {
	f := newFixture(t)
	cat := services.Catalog()
	if len(cat) != 22 {
		t.Fatalf("catalog has %d services, want 22", len(cat))
	}
	sm := f.dev.Kernel.Binder().ServiceManager()
	hardware, software := 0, 0
	for _, reg := range cat {
		if n := sm.Lookup(reg.Name); n == nil || n.Descriptor() != reg.Descriptor {
			t.Errorf("%s: booted node %v, want descriptor %s", reg.Name, n, reg.Descriptor)
		}
		if reg.Hardware {
			hardware++
		} else {
			software++
		}
		if reg.MeasuredMethods == 0 {
			t.Errorf("%s implements no methods", reg.Name)
		}
		if reg.MeasuredLOC == 0 {
			t.Errorf("%s has no decoration lines", reg.Name)
		}
		if reg.PaperMethods == 0 {
			t.Errorf("%s missing paper method count", reg.Name)
		}
	}
	if hardware != 14 || software != 8 {
		t.Errorf("split = %d hardware / %d software, want 14/8", hardware, software)
	}
}

func TestCatalogPaperNumbers(t *testing.T) {
	want := map[string][2]int{ // name → {methods, loc}; loc -1 = TBD
		"audio":             {71, 150},
		"bluetooth_manager": {202, -1},
		"camera":            {8, 31},
		"connectivity":      {59, 26},
		"country_detector":  {3, 5},
		"input_method":      {29, 37},
		"input":             {15, 11},
		"location":          {13, 15},
		"power":             {19, 14},
		"sensorservice":     {6, 94},
		"serial":            {2, -1},
		"usb":               {19, -1},
		"vibrator":          {4, 26},
		"wifi":              {47, 54},
		"activity":          {178, 130},
		"alarm":             {4, 20},
		"clipboard":         {7, 6},
		"keyguard":          {22, 16},
		"notification":      {14, 34},
		"servicediscovery":  {2, 3},
		"textservices":      {9, 16},
		"uimode":            {5, 9},
	}
	for _, reg := range services.Catalog() {
		w, ok := want[reg.Name]
		if !ok {
			t.Errorf("unexpected service %s", reg.Name)
			continue
		}
		if reg.PaperMethods != w[0] || reg.PaperLOC != w[1] {
			t.Errorf("%s paper numbers = %d/%d, want %d/%d",
				reg.Name, reg.PaperMethods, reg.PaperLOC, w[0], w[1])
		}
	}
}

func TestNotificationLifecycle(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.NotificationInterface, "notification")
	f.call(t, c, "enqueueNotification", 1, aidl.Object("n:new-message"))
	f.call(t, c, "enqueueNotification", 2, aidl.Object("n:upload-done"))

	reply, err := c.Call("getActiveNotificationCount")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reply.Int32At(0); err != nil || got != 2 {
		t.Errorf("active = %d, %v", got, err)
	}
	f.call(t, c, "cancelNotification", 1)
	st := f.dev.System.Notifications.AppState("com.example.app")
	if len(st) != 1 || st["notif.2"] != "n:upload-done" {
		t.Errorf("state = %v", st)
	}
	f.call(t, c, "cancelAllNotifications")
	if got := f.dev.System.Notifications.AppState("com.example.app"); len(got) != 0 {
		t.Errorf("state after cancelAll = %v", got)
	}
}

func TestNotificationRecordingPrunes(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.NotificationInterface, "notification")
	f.call(t, c, "enqueueNotification", 1, aidl.Object("a"))
	f.call(t, c, "enqueueNotification", 2, aidl.Object("b"))
	f.call(t, c, "cancelNotification", 1)
	entries := f.dev.Recorder.Log().AppEntries("com.example.app")
	if len(entries) != 1 || entries[0].Method != "enqueueNotification" {
		var methods []string
		for _, e := range entries {
			methods = append(methods, e.Method)
		}
		t.Errorf("log = %v", methods)
	}
}

func TestAlarmSetAndFire(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.AlarmInterface, "alarm")
	clock := f.dev.Kernel.Clock()
	trigger := clock.Now().Add(10 * time.Minute).UnixMilli()
	f.call(t, c, "set", 0, trigger, aidl.Object("pi:refresh"))

	if got := f.dev.System.Alarms.Pending("com.example.app"); len(got) != 1 {
		t.Fatalf("pending = %v", got)
	}
	clock.Advance(11 * time.Minute)
	if got := f.dev.System.Alarms.Pending("com.example.app"); len(got) != 0 {
		t.Errorf("alarm did not fire: %v", got)
	}
	// The broadcast reached the app.
	found := false
	for _, in := range f.app.IntentsSeen() {
		if in == fmt.Sprintf("intent{%s → com.example.app}", android.ActionAlarmFired) {
			found = true
		}
	}
	if !found {
		t.Errorf("alarm intent not delivered: %v", f.app.IntentsSeen())
	}
}

func TestAlarmRemoveCancelsKernelTimer(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.AlarmInterface, "alarm")
	clock := f.dev.Kernel.Clock()
	trigger := clock.Now().Add(5 * time.Minute).UnixMilli()
	f.call(t, c, "set", 0, trigger, aidl.Object("pi:x"))
	f.call(t, c, "remove", aidl.Object("pi:x"))
	clock.Advance(time.Hour)
	for _, in := range f.app.IntentsSeen() {
		if in == fmt.Sprintf("intent{%s → com.example.app}", android.ActionAlarmFired) {
			t.Error("removed alarm fired")
		}
	}
}

func TestAlarmReplaceKeepsLatestTrigger(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.AlarmInterface, "alarm")
	clock := f.dev.Kernel.Clock()
	t1 := clock.Now().Add(5 * time.Minute).UnixMilli()
	t2 := clock.Now().Add(50 * time.Minute).UnixMilli()
	f.call(t, c, "set", 0, t1, aidl.Object("pi:x"))
	f.call(t, c, "set", 0, t2, aidl.Object("pi:x"))
	clock.Advance(10 * time.Minute)
	// First trigger must NOT fire: it was replaced.
	if got := len(f.app.IntentsSeen()); got != 0 {
		t.Errorf("replaced alarm fired: %v", f.app.IntentsSeen())
	}
	clock.Advance(45 * time.Minute)
	if got := len(f.app.IntentsSeen()); got != 1 {
		t.Errorf("replacement alarm fired %d times", got)
	}
}

func TestSensorConnectionFlow(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.SensorInterface, "sensorservice")
	reply, err := c.Call("createSensorEventConnection", "com.example.app")
	if err != nil {
		t.Fatal(err)
	}
	connHandle, err := reply.HandleAt(0)
	if err != nil || connHandle == 0 {
		t.Fatalf("connection handle = %d, %v", connHandle, err)
	}
	conn := &aidl.Client{Itf: services.SensorConnectionInterface, Proc: f.app.Process().Binder(), Handle: connHandle}
	f.call(t, conn, "enableSensor", int(services.SensorAccelerometer), true, 20000)
	f.call(t, conn, "enableSensor", int(services.SensorGyroscope), true, 20000)

	chReply, err := conn.Call("getSensorChannel")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := chReply.FDAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.app.Process().FD(fd) == nil {
		t.Errorf("channel fd %d not in app's table", fd)
	}
	conns := f.dev.System.Sensors.Connections("com.example.app")
	if len(conns) != 1 {
		t.Fatalf("connections = %d", len(conns))
	}
	if got := conns[0].EnabledSensors(); len(got) != 2 {
		t.Errorf("enabled = %v", got)
	}
	st := f.dev.System.Sensors.AppState("com.example.app")
	if st["enabled"] != "1,2," {
		t.Errorf("state = %v", st)
	}
	// Disabling removes from the set.
	f.call(t, conn, "enableSensor", int(services.SensorGyroscope), false, 0)
	if got := conns[0].EnabledSensors(); len(got) != 1 {
		t.Errorf("enabled after disable = %v", got)
	}
}

func TestAudioVolumeAndNormalization(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.AudioInterface, "audio")
	f.call(t, c, "setStreamVolume", int(services.StreamMusic), 9, 0)
	if got := f.dev.System.Audio.StreamVolume(services.StreamMusic); got != 9 {
		t.Errorf("volume = %d", got)
	}
	st := f.dev.System.Audio.AppState("com.example.app")
	if st["volume.3"] != "0.6" { // 9/15 on a Nexus 4, bucketed to fifths
		t.Errorf("normalized volume = %v", st)
	}
	// Clamping.
	f.call(t, c, "setStreamVolume", int(services.StreamMusic), 99, 0)
	if got := f.dev.System.Audio.StreamVolume(services.StreamMusic); got != 15 {
		t.Errorf("clamped volume = %d", got)
	}
	f.call(t, c, "adjustStreamVolume", int(services.StreamMusic), -1, 0)
	if got := f.dev.System.Audio.StreamVolume(services.StreamMusic); got != 14 {
		t.Errorf("adjusted volume = %d", got)
	}
	reply, err := c.Call("getStreamMaxVolume", int(services.StreamMusic))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reply.Int32At(0); err != nil || got != 15 {
		t.Errorf("max volume = %d, %v", got, err)
	}
}

func TestPowerWakelocksHitKernel(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.PowerInterface, "power")
	f.call(t, c, "acquireWakeLock", "playback", 1)
	if !f.dev.Kernel.Wakelocks.AnyHeld() {
		t.Error("kernel wakelock not held")
	}
	// Idempotent re-acquire of same tag must not double-count.
	f.call(t, c, "acquireWakeLock", "playback", 1)
	f.call(t, c, "releaseWakeLock", "playback")
	if f.dev.Kernel.Wakelocks.AnyHeld() {
		t.Error("kernel wakelock still held after release")
	}
	// ForgetApp releases outstanding locks.
	f.call(t, c, "acquireWakeLock", "sync", 1)
	f.dev.System.Power.ForgetApp("com.example.app")
	if f.dev.Kernel.Wakelocks.AnyHeld() {
		t.Error("wakelock survived ForgetApp")
	}
}

func TestActivityManagerReceivers(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.ActivityInterface, "activity")
	f.call(t, c, "registerReceiver", "com.example.SYNC_DONE")
	f.call(t, c, "registerReceiver", "android.net.conn.CONNECTIVITY_CHANGE")
	f.call(t, c, "unregisterReceiver", "com.example.SYNC_DONE")
	got := f.dev.System.Activity.RegisteredActions("com.example.app")
	if len(got) != 1 || got[0] != "android.net.conn.CONNECTIVITY_CHANGE" {
		t.Errorf("actions = %v", got)
	}
	// The record log holds exactly the surviving registration.
	var methods []string
	for _, e := range f.dev.Recorder.Log().AppEntries("com.example.app") {
		if e.Service == "activity" {
			methods = append(methods, e.Method)
		}
	}
	if len(methods) != 1 || methods[0] != "registerReceiver" {
		t.Errorf("activity log = %v", methods)
	}
}

func TestBroadcastIntentThroughAMS(t *testing.T) {
	f := newFixture(t)
	seen := ""
	f.app.RegisterReceiver("com.example.PING", func(in android.Intent) { seen = in.Extra("payload") })
	c := f.client(t, services.ActivityInterface, "activity")
	f.call(t, c, "broadcastIntent", "com.example.PING", aidl.Object("hello"))
	if seen != "hello" {
		t.Errorf("broadcast payload = %q", seen)
	}
}

func TestClipboardGlobalState(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, services.ClipboardInterface, "clipboard")
	f.call(t, c, "setPrimaryClip", aidl.Object("copied text"))
	if got := f.dev.System.Clipboard.Clip(); got != "copied text" {
		t.Errorf("clip = %q", got)
	}
	st := f.dev.System.Clipboard.AppState("com.example.app")
	if st["clip"] != "copied text" {
		t.Errorf("app state = %v", st)
	}
	if got := f.dev.System.Clipboard.AppState("other.app"); len(got) != 0 {
		t.Errorf("non-owner sees clip state: %v", got)
	}
}

func TestThinHardwareServices(t *testing.T) {
	f := newFixture(t)
	pkg := "com.example.app"

	f.call(t, f.client(t, services.WifiInterface, "wifi"), "setWifiEnabled", false)
	if f.dev.System.Wifi.Enabled() {
		t.Error("wifi still enabled")
	}
	f.call(t, f.client(t, services.LocationInterface, "location"), "requestLocationUpdates", "gps", int64(1000), 0.5)
	if !f.dev.System.Location.Subscribed(pkg, "gps") {
		t.Error("gps subscription missing")
	}
	f.call(t, f.client(t, services.VibratorInterface, "vibrator"), "vibrate", int64(300))
	if st := f.dev.System.Vibrator.AppState(pkg); st["vibrating"] != "300" {
		t.Errorf("vibrator state = %v", st)
	}
	f.call(t, f.client(t, services.CameraInterface, "camera"), "connectDevice", 0)
	if st := f.dev.System.Camera.AppState(pkg); st["open"] != "cam0" {
		t.Errorf("camera state = %v", st)
	}
	f.call(t, f.client(t, services.BluetoothInterface, "bluetooth_manager"), "enable")
	if st := f.dev.System.Bluetooth.AppState(pkg); st["adapter"] != "on" {
		t.Errorf("bluetooth state = %v", st)
	}
	f.call(t, f.client(t, services.UsbInterface, "usb"), "grantDevicePermission", "usb:1-1")
	if st := f.dev.System.Usb.AppState(pkg); st["grants"] != "usb:1-1" {
		t.Errorf("usb state = %v", st)
	}
	f.call(t, f.client(t, services.SerialInterface, "serial"), "openSerialPort", "/dev/ttyS0")
	if st := f.dev.System.Serial.AppState(pkg); st["ports"] != "/dev/ttyS0" {
		t.Errorf("serial state = %v", st)
	}
	f.call(t, f.client(t, services.InputMethodInterface, "input_method"), "showSoftInput", 0)
	if st := f.dev.System.InputMethod.AppState(pkg); st["softinput"] != "shown" {
		t.Errorf("ime state = %v", st)
	}
	f.call(t, f.client(t, services.InputInterface, "input"), "setPointerSpeed", 3)
	if st := f.dev.System.Input.AppState(pkg); st["pointerSpeed"] != "3" {
		t.Errorf("input state = %v", st)
	}
	f.call(t, f.client(t, services.CountryInterface, "country_detector"), "addCountryListener")
	if st := f.dev.System.Country.AppState(pkg); st["listener"] != "registered" {
		t.Errorf("country state = %v", st)
	}
}

func TestThinSoftwareServices(t *testing.T) {
	f := newFixture(t)
	pkg := "com.example.app"

	f.call(t, f.client(t, services.KeyguardInterface, "keyguard"), "disableKeyguard", "video")
	if st := f.dev.System.Keyguard.AppState(pkg); st["disabled"] != "video" {
		t.Errorf("keyguard state = %v", st)
	}
	f.call(t, f.client(t, services.NsdInterface, "servicediscovery"), "registerService", "_http._tcp")
	if st := f.dev.System.Nsd.AppState(pkg); st["registered"] != "_http._tcp" {
		t.Errorf("nsd state = %v", st)
	}
	f.call(t, f.client(t, services.TextServicesInterface, "textservices"), "setCurrentSpellChecker", "fr")
	if st := f.dev.System.TextServices.AppState(pkg); st["spellchecker"] != "fr" {
		t.Errorf("textservices state = %v", st)
	}
	f.call(t, f.client(t, services.UiModeInterface, "uimode"), "setNightMode", 2)
	if st := f.dev.System.UiMode.AppState(pkg); st["night"] != "2" {
		t.Errorf("uimode state = %v", st)
	}
}

func TestAggregateAppStateAndForget(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.client(t, services.NotificationInterface, "notification"), "enqueueNotification", 5, aidl.Object("x"))
	f.call(t, f.client(t, services.KeyguardInterface, "keyguard"), "disableKeyguard", "v")
	st := f.dev.System.AppState("com.example.app")
	if st["notification/notif.5"] != "x" || st["keyguard/disabled"] != "v" {
		t.Errorf("aggregate state = %v", st)
	}
	f.dev.System.ForgetApp("com.example.app")
	if got := f.dev.System.AppState("com.example.app"); len(got) != 0 {
		t.Errorf("state after ForgetApp = %v", got)
	}
}

func TestCallFromUnknownPIDRejected(t *testing.T) {
	f := newFixture(t)
	// A process not belonging to any app (e.g. a shell) calls a
	// package-scoped service method: the service cannot attribute it.
	shell, err := f.dev.Kernel.CreateProcess(kernel.ProcessOptions{Name: "shell", UID: 2000})
	if err != nil {
		t.Fatal(err)
	}
	c, err := aidl.NewClient(services.NotificationInterface, shell.Binder(), "notification")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("enqueueNotification", 1, aidl.Object("x")); err == nil {
		t.Error("unattributable service call succeeded")
	}
}

// TestAppCannotTakeOverService has a launched app (an application UID)
// register its own node as "notification", once through binder.AddService
// and once through a raw SMAddService transaction. Both are refused, and
// the name still resolves to system_server's node.
func TestAppCannotTakeOverService(t *testing.T) {
	f := newFixture(t)
	sm := f.dev.Kernel.Binder().ServiceManager()
	booted := sm.Lookup("notification")
	if booted == nil || booted.OwnerPID() != f.dev.System.Proc().PID() {
		t.Fatalf("booted notification node = %v, want one owned by system_server", booted)
	}
	proc := f.app.Process().Binder()
	fake := binder.TransactorFunc(func(*binder.Call) error { return nil })
	if _, err := binder.AddService(proc, "notification", services.NotificationInterface.Name, fake); !errors.Is(err, binder.ErrNotSystem) {
		t.Errorf("AddService from an app: err = %v, want ErrNotSystem", err)
	}
	if owned := proc.OwnedNodes(); len(owned) != 0 {
		t.Errorf("refused AddService published nodes %v", owned)
	}

	node, err := proc.Publish(services.NotificationInterface.Name, fake)
	if err != nil {
		t.Fatal(err)
	}
	h, err := proc.Ref(node)
	if err != nil {
		t.Fatal(err)
	}
	data := binder.NewParcel()
	data.WriteString("notification")
	data.WriteHandle(h)
	if _, err := proc.Transact(binder.ContextManagerHandle, binder.SMAddService, data); !errors.Is(err, binder.ErrNotSystem) {
		t.Errorf("SMAddService transaction from an app: err = %v, want ErrNotSystem", err)
	}

	if got := sm.Lookup("notification"); got != booted || got.OwnerPID() != 1 {
		t.Errorf("Lookup(notification) = node %d of pid %d, want system_server's node %d of pid 1", got.ID(), got.OwnerPID(), booted.ID())
	}
	if got := sm.NameOf(booted.ID()); got != "notification" {
		t.Errorf("NameOf(system_server's node) = %q, want notification", got)
	}
	if got := sm.NameOf(node.ID()); got != "" {
		t.Errorf("NameOf(app's node) = %q, want none", got)
	}
}
