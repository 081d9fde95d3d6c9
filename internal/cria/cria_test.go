package cria_test

import (
	"errors"
	"testing"
	"time"

	"flux/internal/aidl"
	"flux/internal/android"
	"flux/internal/binder"
	"flux/internal/cria"
	"flux/internal/device"
	"flux/internal/kernel"
	"flux/internal/services"
)

const pkg = "com.example.notes"

func spec() android.AppSpec {
	return android.AppSpec{
		Package:           pkg,
		MainActivity:      "Main",
		Views:             []string{"list"},
		HeapBytes:         6 << 20,
		HeapEntropy:       0.5,
		TextureCacheBytes: 1 << 20,
	}
}

// prepped launches the app, runs a small workload, and completes the
// preparation phase so it is checkpointable.
func prepped(t *testing.T, dev *device.Device) *android.App {
	t.Helper()
	app, err := dev.Runtime.Launch(spec())
	if err != nil {
		t.Fatal(err)
	}
	c, err := aidl.NewClient(services.NotificationInterface, app.Process().Binder(), "notification")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("enqueueNotification", 7, aidl.Object("n:x")); err != nil {
		t.Fatal(err)
	}
	app.PutSavedState("cursor", "note-3")
	dev.Runtime.MoveToBackground(app)
	dev.Kernel.Clock().Advance(time.Second)
	if err := app.HandleTrimMemory(); err != nil {
		t.Fatal(err)
	}
	if err := app.EGLUnload(); err != nil {
		t.Fatal(err)
	}
	return app
}

func opts(dev *device.Device) cria.Options {
	return cria.Options{
		HomeDevice:      dev.Name(),
		ServiceManager:  dev.Kernel.Binder().ServiceManager(),
		Recorder:        dev.Recorder,
		Now:             dev.Kernel.Clock().Now,
		HomeVolumeSteps: dev.System.Audio.MaxSteps(),
		SystemPID:       dev.System.Proc().PID(),
	}
}

func TestCheckpointCapturesCoreState(t *testing.T) {
	dev, err := device.New(device.Nexus4("home"))
	if err != nil {
		t.Fatal(err)
	}
	app := prepped(t, dev)
	img, err := cria.Checkpoint(app, opts(dev))
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if img.Pkg != pkg || img.HomeDevice != "home" {
		t.Errorf("image identity = %s/%s", img.Pkg, img.HomeDevice)
	}
	if img.VPID != app.Process().PID() {
		t.Errorf("vpid = %d", img.VPID)
	}
	if img.PayloadBytes() != 6<<20 {
		t.Errorf("payload = %d, want heap only", img.PayloadBytes())
	}
	if img.CompressedPayloadBytes() != 3<<20 {
		t.Errorf("compressed payload = %d", img.CompressedPayloadBytes())
	}
	if img.Runtime.SavedState["cursor"] != "note-3" {
		t.Errorf("bundle = %v", img.Runtime.SavedState)
	}
	// Handle table: handle 0 + notification service.
	kinds := map[cria.HandleKind]int{}
	var svcNames []string
	for _, h := range img.Handles {
		kinds[h.Kind]++
		if h.Kind == cria.HandleSystemService {
			svcNames = append(svcNames, h.ServiceName)
		}
	}
	if kinds[cria.HandleContextManager] != 1 {
		t.Errorf("context manager handles = %d", kinds[cria.HandleContextManager])
	}
	if kinds[cria.HandleSystemService] != 1 || svcNames[0] != "notification" {
		t.Errorf("service handles = %v", svcNames)
	}
	if len(img.RecordLog) == 0 {
		t.Error("record log missing from image")
	}
}

func TestCheckpointRefusesDeviceStateResident(t *testing.T) {
	dev, _ := device.New(device.Nexus4("home"))
	app, err := dev.Runtime.Launch(spec())
	if err != nil {
		t.Fatal(err)
	}
	// No preparation: surface + GL context are live.
	_, err = cria.Checkpoint(app, opts(dev))
	if !errors.Is(err, cria.ErrDeviceStateResident) {
		t.Errorf("err = %v, want ErrDeviceStateResident", err)
	}
}

func TestCheckpointRefusesMultiProcess(t *testing.T) {
	dev, _ := device.New(device.Nexus4("home"))
	s := spec()
	s.ExtraProcesses = 1
	app, err := dev.Runtime.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	dev.Runtime.MoveToBackground(app)
	dev.Kernel.Clock().Advance(time.Second)
	app.HandleTrimMemory()
	app.EGLUnload()
	if _, err := cria.Checkpoint(app, opts(dev)); !errors.Is(err, cria.ErrMultiProcess) {
		t.Errorf("err = %v, want ErrMultiProcess", err)
	}
	o := opts(dev)
	o.AllowMultiProcess = true
	if _, err := cria.Checkpoint(app, o); err != nil {
		t.Errorf("AllowMultiProcess checkpoint: %v", err)
	}
}

func TestCheckpointRefusesProviderBusy(t *testing.T) {
	dev, _ := device.New(device.Nexus4("home"))
	app := prepped(t, dev)
	app.BeginProviderUse()
	if _, err := cria.Checkpoint(app, opts(dev)); !errors.Is(err, cria.ErrProviderBusy) {
		t.Errorf("err = %v, want ErrProviderBusy", err)
	}
}

func TestCheckpointRefusesNonSystemConnection(t *testing.T) {
	dev, _ := device.New(device.Nexus4("home"))
	app := prepped(t, dev)
	other, err := dev.Kernel.CreateProcess(kernel.ProcessOptions{Name: "other.app", UID: 10002})
	if err != nil {
		t.Fatal(err)
	}
	node, err := other.Binder().Publish("IPrivate", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Process().Binder().Ref(node); err != nil {
		t.Fatal(err)
	}
	if _, err := cria.Checkpoint(app, opts(dev)); !errors.Is(err, cria.ErrNonSystemConnection) {
		t.Errorf("err = %v, want ErrNonSystemConnection", err)
	}
}

func TestImageMarshalRoundTrip(t *testing.T) {
	dev, _ := device.New(device.Nexus4("home"))
	app := prepped(t, dev)
	img, err := cria.Checkpoint(app, opts(dev))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := cria.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Pkg != img.Pkg || back.VPID != img.VPID || len(back.Handles) != len(img.Handles) {
		t.Errorf("round trip mismatch: %+v vs %+v", back, img)
	}
	if !back.CheckpointTime.Equal(img.CheckpointTime) {
		t.Errorf("checkpoint time drifted: %v vs %v", back.CheckpointTime, img.CheckpointTime)
	}
	if _, err := cria.Unmarshal(wire[:len(wire)/2]); err == nil {
		t.Error("Unmarshal accepted truncated image")
	}
	if _, err := cria.Unmarshal([]byte("junk")); err == nil {
		t.Error("Unmarshal accepted junk")
	}
}

func TestRestoreRebindsHandlesAndKeepsIDs(t *testing.T) {
	home, _ := device.New(device.Nexus4("home"))
	guest, _ := device.New(device.Nexus7_2013("guest"))
	app := prepped(t, home)
	// Note the app's notification handle id before checkpoint.
	var notifHandle binder.Handle
	for _, he := range app.Process().Binder().Handles() {
		if he.Descriptor == "INotificationManager" {
			notifHandle = he.Handle
		}
	}
	if notifHandle == 0 {
		t.Fatal("no notification handle on home")
	}
	img, err := cria.Checkpoint(app, opts(home))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := cria.Restore(img, cria.RestoreOptions{Runtime: guest.Runtime})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The same handle id must reach the GUEST's notification service.
	data := binder.NewParcel()
	reply, err := restored.App.Process().Binder().Transact(notifHandle,
		services.NotificationInterface.Method("getActiveNotificationCount").Code, data)
	if err != nil {
		t.Fatalf("transact on re-bound handle: %v", err)
	}
	if got, err := reply.Int32At(0); err != nil || got != 0 {
		t.Errorf("guest notification count = %d, %v before replay, want 0", got, err)
	}
	// Restored process is namespaced with the original pid.
	p := restored.App.Process()
	if p.Namespace() == nil || p.VPID() != img.VPID {
		t.Errorf("namespace/vpid = %v/%d", p.Namespace(), p.VPID())
	}
	// Memory was restored from the image, not the spec default.
	if got := p.MemoryBytes(kernel.SegHeap); got != img.PayloadBytes() {
		t.Errorf("restored heap = %d, want %d", got, img.PayloadBytes())
	}
	// Record log entries decoded.
	if len(restored.Entries) == 0 {
		t.Error("no record entries restored")
	}
}

func TestRestoreFailsWhenGuestLacksService(t *testing.T) {
	home, _ := device.New(device.Nexus4("home"))
	app := prepped(t, home)
	img, err := cria.Checkpoint(app, opts(home))
	if err != nil {
		t.Fatal(err)
	}
	// A bare runtime with no system services cannot re-bind by name.
	bare := android.NewRuntime(kernel.New("3.4"), android.RuntimeOptions{
		Screen: android.Screen{WidthPx: 100, HeightPx: 100, DPI: 160},
	})
	if _, err := cria.Restore(img, cria.RestoreOptions{Runtime: bare}); err == nil {
		t.Error("restore without guest services succeeded")
	}
}

func TestHandleKindStrings(t *testing.T) {
	for k, want := range map[cria.HandleKind]string{
		cria.HandleContextManager:   "context-manager",
		cria.HandleSystemService:    "system-service",
		cria.HandleInternal:         "internal",
		cria.HandleReplayRestorable: "replay-restorable",
	} {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q", k, got)
		}
	}
}
