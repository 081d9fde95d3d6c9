package device

import (
	"reflect"
	"sort"
	"testing"

	"flux/internal/android"
	"flux/internal/binder"
	"flux/internal/rsyncx"
)

func TestProfileByName(t *testing.T) {
	for _, tc := range []struct {
		name, model string // model "" means the name is unknown
	}{
		{"nexus4", "Nexus 4"},
		{"nexus7-2012", "Nexus 7"},
		{"nexus7", "Nexus 7"},
		{"nexus7-2013", "Nexus 7 (2013)"},
		{"pixel", ""},
	} {
		p, err := ProfileByName(tc.name, "dev-"+tc.name)
		if tc.model == "" {
			if err == nil {
				t.Errorf("%s: unknown name resolved to %q", tc.name, p.Model)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if p.Model != tc.model || p.Name != "dev-"+tc.name {
			t.Errorf("%s: got model %q instance %q", tc.name, p.Model, p.Name)
		}
	}
}

func TestProfilesMatchEvaluationHardware(t *testing.T) {
	n4 := Nexus4("a")
	n7 := Nexus7_2012("b")
	n713 := Nexus7_2013("c")

	if n4.Screen.WidthPx != 768 || n4.Screen.HeightPx != 1280 {
		t.Errorf("Nexus 4 screen = %v", n4.Screen)
	}
	if n7.KernelVersion != "3.1" || n713.KernelVersion != "3.4" {
		t.Errorf("kernel versions = %s / %s, paper says 3.1 and 3.4", n7.KernelVersion, n713.KernelVersion)
	}
	if n7.GPU.Model == n4.GPU.Model {
		t.Error("Nexus 7 (2012) should have a different GPU from the Nexus 4")
	}
	if n4.GPU.Model != n713.GPU.Model {
		t.Error("Nexus 4 and Nexus 7 (2013) share the Adreno 320")
	}
	if n7.RAMBytes >= n4.RAMBytes {
		t.Error("2012 tablet should have less RAM")
	}
	if n7.Radio.EffectiveBps >= n4.Radio.EffectiveBps {
		t.Error("2.4GHz radio should be slower")
	}
}

func TestNewRejectsBadProfile(t *testing.T) {
	p := Nexus4("bad")
	p.CPUFactor = 0
	if _, err := New(p); err == nil {
		t.Error("zero CPU factor accepted")
	}
}

func TestSystemPartitionScale(t *testing.T) {
	d, err := New(Nexus7_2012("x"))
	if err != nil {
		t.Fatal(err)
	}
	totalMB := float64(d.SystemTree().TotalBytes()) / (1 << 20)
	if totalMB < 200 || totalMB > 230 {
		t.Errorf("system partition = %.0f MB, want ≈215 (paper)", totalMB)
	}
	if d.SystemTree().Len() < 20 {
		t.Errorf("system partition has only %d files", d.SystemTree().Len())
	}
}

func TestSystemPartitionSharingStructure(t *testing.T) {
	a, _ := New(Nexus7_2012("a"))
	b, _ := New(Nexus7_2013("b"))
	c, _ := New(Nexus7_2013("c"))
	// Same model → identical trees (full hard-linking).
	if !b.SystemTree().Equal(c.SystemTree()) {
		t.Error("identical models have divergent system trees")
	}
	// Different models on the same Android version share framework jars
	// but not vendor blobs.
	shared, distinct := 0, 0
	for _, f := range a.SystemTree().Files() {
		if g, ok := b.SystemTree().Get(f.Path); ok && g.Hash == f.Hash {
			shared++
		} else {
			distinct++
		}
	}
	if shared == 0 || distinct == 0 {
		t.Errorf("cross-model sharing: %d shared, %d distinct — both must be nonzero", shared, distinct)
	}
}

func TestInstallAndPackageManagerWiring(t *testing.T) {
	d, _ := New(Nexus4("x"))
	spec := android.AppSpec{Package: "com.a", Label: "A", MainActivity: "M", HeapBytes: 1, HeapEntropy: 0.5}
	inst := &Install{Spec: spec, APK: rsyncx.File{Path: "/a.apk", Size: 10, Hash: 1}}
	if err := d.InstallApp(inst); err != nil {
		t.Fatal(err)
	}
	if err := d.InstallApp(inst); err == nil {
		t.Error("duplicate install accepted")
	}
	info, ok := d.System.Packages.Info("com.a")
	if !ok || info.Label != "A" || info.Pseudo {
		t.Errorf("PMS info = %+v, %t", info, ok)
	}
	// A pseudo install may be upgraded by a real one.
	d2, _ := New(Nexus4("y"))
	pseudo := &Install{Spec: spec, Pseudo: true}
	if err := d2.InstallApp(pseudo); err != nil {
		t.Fatal(err)
	}
	if info, _ := d2.System.Packages.Info("com.a"); !info.Pseudo {
		t.Error("pseudo flag lost")
	}
	if err := d2.InstallApp(inst); err != nil {
		t.Errorf("real install over pseudo refused: %v", err)
	}
	d.Uninstall("com.a")
	if d.Installed("com.a") != nil {
		t.Error("install record survived uninstall")
	}
	if _, ok := d.System.Packages.Info("com.a"); ok {
		t.Error("PMS record survived uninstall")
	}
}

func TestFluxDirAndPairingMarks(t *testing.T) {
	d, _ := New(Nexus4("x"))
	if d.FluxDir("other") != nil {
		t.Error("flux dir exists before pairing")
	}
	tree := rsyncx.NewTree()
	d.SetFluxDir("other", tree)
	if d.FluxDir("other") != tree {
		t.Error("SetFluxDir lost the tree")
	}
	if d.PairedWith("other") {
		t.Error("paired before MarkPaired")
	}
	d.MarkPaired("other")
	if !d.PairedWith("other") {
		t.Error("MarkPaired not visible")
	}
}

func TestLinkUsesProfileRadios(t *testing.T) {
	a, _ := New(Nexus4("a"))
	b, _ := New(Nexus7_2012("b"))
	l := Link(a, b)
	if l.Bandwidth() >= a.Profile().Radio.EffectiveBps {
		t.Error("link not bounded by the slower radio")
	}
}

func TestHashContentStable(t *testing.T) {
	if HashContent("a", "b") != HashContent("a", "b") {
		t.Error("hash not deterministic")
	}
	if HashContent("a", "b") == HashContent("ab") {
		t.Error("hash ignores part boundaries")
	}
}

// TestBootState pins the Binder state a Nexus 4 boot leaves behind: the
// ServiceManager's names, each name's node id and owner, and the handle
// tables of system_server and of the ServiceManager's owner (pid 0). Boot
// registers the services in catalog order; system_server refs each node
// as it publishes it and pid 0 refs it as the ServiceManager binds the
// name, so both tables hold handle i for the i-th service. Any change to
// how boot registers services must leave every value here unchanged.
func TestBootState(t *testing.T) {
	d, err := New(Nexus4("state"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		handle     binder.Handle
		node       binder.NodeID
		name       string
		descriptor string
	}
	booted := []row{
		{1, 2, "notification", "INotificationManager"},
		{2, 3, "alarm", "IAlarmManager"},
		{3, 4, "sensorservice", "ISensorServer"},
		{4, 5, "audio", "IAudioService"},
		{5, 6, "activity", "IActivityManager"},
		{6, 7, "clipboard", "IClipboard"},
		{7, 8, "wifi", "IWifiManager"},
		{8, 9, "connectivity", "IConnectivityManager"},
		{9, 10, "location", "ILocationManager"},
		{10, 11, "power", "IPowerManager"},
		{11, 12, "vibrator", "IVibratorService"},
		{12, 13, "input_method", "IInputMethodManager"},
		{13, 14, "input", "IInputManager"},
		{14, 15, "keyguard", "IKeyguardService"},
		{15, 16, "uimode", "IUiModeManager"},
		{16, 17, "servicediscovery", "INsdManager"},
		{17, 18, "textservices", "ITextServicesManager"},
		{18, 19, "country_detector", "ICountryDetector"},
		{19, 20, "camera", "ICameraService"},
		{20, 21, "bluetooth_manager", "IBluetooth"},
		{21, 22, "serial", "ISerialManager"},
		{22, 23, "usb", "IUsbManager"},
		{23, 24, "package", "IPackageManager"},
	}
	if pid := d.System.Proc().PID(); pid != 1 {
		t.Fatalf("system_server booted as pid %d, want 1", pid)
	}
	drv := d.Kernel.Binder()
	sm := drv.ServiceManager()
	var names []string
	for _, r := range booted {
		names = append(names, r.name)
		n := sm.Lookup(r.name)
		if n == nil || n.ID() != r.node || n.OwnerPID() != 1 {
			t.Errorf("Lookup(%q) = %v, want node %d owned by pid 1", r.name, n, r.node)
		}
	}
	sort.Strings(names)
	if got := sm.Names(); !reflect.DeepEqual(got, names) {
		t.Errorf("Names() = %v, want %v", got, names)
	}

	var services []binder.HandleEntry
	for _, r := range booted {
		services = append(services, binder.HandleEntry{Handle: r.handle, Node: r.node, OwnerPID: 1, Descriptor: r.descriptor})
	}
	for _, tc := range []struct {
		proc string
		pid  int
		want []binder.HandleEntry
	}{
		{"system_server", 1, append([]binder.HandleEntry{{Handle: 0, Node: 1, OwnerPID: 0, Descriptor: "android.os.IServiceManager"}}, services...)},
		{"servicemanager", 0, services},
	} {
		p := drv.Proc(tc.pid)
		if p == nil {
			t.Fatalf("%s: no binder state for pid %d", tc.proc, tc.pid)
		}
		if got := p.Handles(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s handles:\n got %v\nwant %v", tc.proc, got, tc.want)
		}
	}
}
