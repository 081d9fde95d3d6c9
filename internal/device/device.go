// Package device assembles one simulated Android device: kernel, Binder
// driver, framework runtime, the 22 decorated system services, the
// Selective Record recorder, the system partition file tree (for pairing),
// and the app install database. Profiles model the paper's evaluation
// hardware: Nexus 4, Nexus 7 (2012), and Nexus 7 (2013).
//
// A boot builds only what belongs to one device. Every device of one
// model and Android version has the same system partition, so the tree
// is built once per process for each such profile and shared read-only;
// the Table 2 catalog and the compiled AIDL tables are shared the same
// way by the services and aidl packages.
package device

import (
	"fmt"
	"hash/fnv"
	"sync"

	"flux/internal/android"
	"flux/internal/gpu"
	"flux/internal/kernel"
	"flux/internal/netsim"
	"flux/internal/record"
	"flux/internal/rsyncx"
	"flux/internal/services"
)

// Profile is the static hardware/software description of a device model.
type Profile struct {
	Name           string // instance name, unique per device
	Model          string // hardware model
	SoC            string
	CPUFactor      float64 // relative CPU speed; 1.0 = Snapdragon S4 Pro
	RAMBytes       int64
	Screen         android.Screen
	GPU            gpu.Hardware
	KernelVersion  string
	AndroidVersion string
	Radio          netsim.Radio
	VolumeSteps    int
}

// Nexus4 is the LG Nexus 4 phone from the evaluation.
func Nexus4(name string) Profile {
	return Profile{
		Name:           name,
		Model:          "Nexus 4",
		SoC:            "Qualcomm Snapdragon S4 Pro APQ8064",
		CPUFactor:      1.0,
		RAMBytes:       2 << 30,
		Screen:         android.Screen{WidthPx: 768, HeightPx: 1280, DPI: 320},
		GPU:            gpu.Adreno320(),
		KernelVersion:  "3.4",
		AndroidVersion: "4.4.2",
		Radio:          netsim.Radio80211n5G,
		VolumeSteps:    15,
	}
}

// Nexus7_2012 is the ASUS Nexus 7 (2012) tablet: Tegra 3, older kernel,
// congested 2.4 GHz radio.
func Nexus7_2012(name string) Profile {
	return Profile{
		Name:           name,
		Model:          "Nexus 7",
		SoC:            "NVIDIA Tegra 3 T30L",
		CPUFactor:      0.6,
		RAMBytes:       1 << 30,
		Screen:         android.Screen{WidthPx: 1280, HeightPx: 800, DPI: 216},
		GPU:            gpu.ULPGeForce(),
		KernelVersion:  "3.1",
		AndroidVersion: "4.4.2",
		Radio:          netsim.Radio80211n24G,
		VolumeSteps:    30,
	}
}

// Nexus7_2013 is the ASUS Nexus 7 (2013) tablet.
func Nexus7_2013(name string) Profile {
	return Profile{
		Name:           name,
		Model:          "Nexus 7 (2013)",
		SoC:            "Qualcomm Snapdragon S4 Pro APQ8064",
		CPUFactor:      1.0,
		RAMBytes:       2 << 30,
		Screen:         android.Screen{WidthPx: 1920, HeightPx: 1200, DPI: 323},
		GPU:            gpu.Adreno320(),
		KernelVersion:  "3.4",
		AndroidVersion: "4.4.2",
		Radio:          netsim.Radio80211n5G,
		VolumeSteps:    30,
	}
}

// ProfileByName returns the profile for a device model name as the CLIs
// spell it — nexus4, nexus7-2012 (alias nexus7) or nexus7-2013 — with
// the given instance name.
func ProfileByName(name, instance string) (Profile, error) {
	switch name {
	case "nexus4":
		return Nexus4(instance), nil
	case "nexus7", "nexus7-2012":
		return Nexus7_2012(instance), nil
	case "nexus7-2013":
		return Nexus7_2013(instance), nil
	}
	return Profile{}, fmt.Errorf("unknown device %q (nexus4, nexus7-2012, nexus7-2013)", name)
}

// Install records one installed app on a device.
type Install struct {
	Spec    android.AppSpec
	APK     rsyncx.File
	DataDir *rsyncx.Tree // /data/data/<pkg>
	SDDir   *rsyncx.Tree // app-specific SD card directory
	// Pseudo marks a pairing-time pseudo-install: metadata and wrapper only,
	// no app data (paper §3.1).
	Pseudo bool
	// MigratedTo names the device currently holding the app's live state
	// after a migration out; empty when the state is local (paper §3.4,
	// cross-device app state consistency).
	MigratedTo string
}

// Device is one running simulated device.
type Device struct {
	profile  Profile
	Kernel   *kernel.Kernel
	Runtime  *android.Runtime
	System   *services.System
	Recorder *record.Recorder

	mu         sync.Mutex
	systemTree *rsyncx.Tree
	fluxDir    map[string]*rsyncx.Tree // home-device name → synced framework tree
	installs   map[string]*Install
	paired     map[string]bool
}

// New boots a device from a profile.
func New(p Profile) (*Device, error) {
	if p.CPUFactor <= 0 {
		return nil, fmt.Errorf("device: %s has non-positive CPU factor", p.Name)
	}
	k := kernel.New(p.KernelVersion)
	// The runtime needs only the kernel and starts no process, so it
	// comes first and hands its pid resolver and broadcast hook to the
	// recorder and the services as they are built.
	rt := android.NewRuntime(k, android.RuntimeOptions{Screen: p.Screen, GPU: p.GPU})
	pkgOf := rt.PackageOf
	rec := record.NewRecorder(record.NewLog(), record.Config{
		Now:       k.Clock().Now,
		PackageOf: pkgOf,
	})
	sys, err := services.Boot(services.Config{
		Kernel:      k,
		Recorder:    rec,
		Broadcast:   rt.Broadcast,
		PackageOf:   pkgOf,
		VolumeSteps: p.VolumeSteps,
		NetworkName: "wifi:" + p.Name,
	})
	if err != nil {
		return nil, err
	}

	d := &Device{
		profile:    p,
		Kernel:     k,
		Runtime:    rt,
		System:     sys,
		Recorder:   rec,
		systemTree: sharedPartition(p),
		fluxDir:    make(map[string]*rsyncx.Tree),
		installs:   make(map[string]*Install),
		paired:     make(map[string]bool),
	}
	k.Binder().SetInterposer(rec)
	return d, nil
}

// Profile returns the device's static description.
func (d *Device) Profile() Profile { return d.profile }

// Name returns the device instance name.
func (d *Device) Name() string { return d.profile.Name }

// SystemTree returns the device's system partition (frameworks + libs).
// Every device of the same model, SoC, GPU and Android version returns
// the same tree, so it must not be modified; pairing only reads it.
func (d *Device) SystemTree() *rsyncx.Tree { return d.systemTree }

// FluxDir returns the synced copy of homeDevice's frameworks on this
// device's data partition, nil before pairing.
func (d *Device) FluxDir(homeDevice string) *rsyncx.Tree {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fluxDir[homeDevice]
}

// SetFluxDir installs a synced framework tree (the pairing phase does this).
func (d *Device) SetFluxDir(homeDevice string, tree *rsyncx.Tree) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fluxDir[homeDevice] = tree
}

// MarkPaired records a completed pairing with the named device.
func (d *Device) MarkPaired(other string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.paired[other] = true
}

// PairedWith reports whether pairing with other has completed.
func (d *Device) PairedWith(other string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.paired[other]
}

// InstallApp records a full (native) install on the device.
func (d *Device) InstallApp(inst *Install) error {
	if err := inst.Spec.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if have, ok := d.installs[inst.Spec.Package]; ok && !have.Pseudo {
		return fmt.Errorf("device: %s already installed on %s", inst.Spec.Package, d.profile.Name)
	}
	d.installs[inst.Spec.Package] = inst
	d.System.Packages.Install(services.PackageInfo{
		Package:    inst.Spec.Package,
		Label:      inst.Spec.Label,
		APILevel:   inst.Spec.APIKLevel,
		Pseudo:     inst.Pseudo,
		Components: []string{inst.Spec.MainActivity},
	})
	return nil
}

// Installed returns the install record for pkg, or nil.
func (d *Device) Installed(pkg string) *Install {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.installs[pkg]
}

// Uninstall removes an install record.
func (d *Device) Uninstall(pkg string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.installs, pkg)
	d.System.Packages.Remove(pkg)
}

// Link builds the network link between two devices.
func Link(a, b *Device) netsim.Link {
	return netsim.Link{A: a.profile.Radio, B: b.profile.Radio}
}

// hashContent derives a stable content hash for synthetic files.
func hashContent(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// partitions memoizes systemPartition for the whole process. Boots on
// concurrent goroutines (experiments.ForEach workers) share it, hence the
// mutex.
var partitions = struct {
	sync.Mutex
	trees map[partitionKey]*rsyncx.Tree
}{trees: make(map[partitionKey]*rsyncx.Tree)}

// partitionKey holds every Profile field systemPartition reads. The
// instance name is not one of them.
type partitionKey struct {
	model, androidVersion, soc, vendorLib, vendorBlob string
}

// sharedPartition returns the process-wide system partition for p's
// profile, building it on first use. The file list is sorted before the
// tree is first handed out, so a shared tree is only ever read.
func sharedPartition(p Profile) *rsyncx.Tree {
	k := partitionKey{p.Model, p.AndroidVersion, p.SoC, p.GPU.VendorLib, p.GPU.VendorBlob}
	partitions.Lock()
	defer partitions.Unlock()
	t, ok := partitions.trees[k]
	if !ok {
		t = systemPartition(p)
		t.Files()
		partitions.trees[k] = t
	}
	return t
}

// systemPartition synthesizes a device's /system tree: ~215 MB of core
// frameworks and libraries. Files common to an Android version hash
// identically across devices (hard-linkable during pairing); vendor blobs
// and device overlays hash per-device. The shared/device split is tuned to
// the paper's pairing numbers: 215 MB total, 123 MB after linking, 56 MB
// compressed delta. It is a pure function of the partitionKey fields;
// boots go through sharedPartition.
func systemPartition(p Profile) *rsyncx.Tree {
	t := rsyncx.NewTree()
	// Shared framework jars: identical for a given Android version.
	shared := []struct {
		path string
		mb   float64
	}{
		{"/system/framework/framework.jar", 24},
		{"/system/framework/framework-res.apk", 18},
		{"/system/framework/services.jar", 12},
		{"/system/framework/core.jar", 10},
		{"/system/framework/ext.jar", 6},
		{"/system/framework/telephony-common.jar", 5},
		{"/system/framework/android.policy.jar", 3},
		{"/system/framework/webviewchromium.jar", 8},
		{"/system/app/SystemUI.apk", 6},
	}
	var sharedTotal float64
	for _, f := range shared {
		sharedTotal += f.mb
		t.Add(rsyncx.File{
			Path:    f.path,
			Size:    int64(f.mb * (1 << 20)),
			Hash:    hashContent("android", p.AndroidVersion, f.path),
			Entropy: 0.42,
		})
	}
	// Device-specific libraries: vendor GL, HALs, firmware, overlays.
	deviceFiles := []struct {
		path string
		mb   float64
	}{
		{"/system/lib/libc.so", 1.2},
		{"/system/lib/" + p.GPU.VendorLib, 14},
		{"/system/lib/hw/gralloc." + p.SoC + ".so", 4},
		{"/system/lib/hw/camera." + p.SoC + ".so", 9},
		{"/system/lib/hw/audio." + p.SoC + ".so", 5},
		{"/system/vendor/firmware/" + p.GPU.VendorBlob, 22},
		{"/system/lib/libdvm.so", 6},
		{"/system/lib/libandroid_runtime.so", 8},
		{"/system/lib/libskia.so", 7},
		{"/system/lib/libmedia.so", 9},
		{"/system/app/DeviceOverlay.apk", 3},
	}
	var devTotal float64
	for _, f := range deviceFiles {
		devTotal += f.mb
		t.Add(rsyncx.File{
			Path: f.path,
			Size: int64(f.mb * (1 << 20)),
			// Device-specific content: hash depends on the hardware model
			// so identical models link fully and different models do not.
			Hash:    hashContent("device", p.Model, p.AndroidVersion, f.path),
			Entropy: 0.455,
		})
	}
	// Filler libraries bring the totals to the paper's scale: 215 MB total
	// with 123 MB device-specific.
	for i := 0; devTotal < 123; i++ {
		mb := 2.5
		devTotal += mb
		path := fmt.Sprintf("/system/lib/libvendor%02d.so", i)
		t.Add(rsyncx.File{
			Path:    path,
			Size:    int64(mb * (1 << 20)),
			Hash:    hashContent("device", p.Model, p.AndroidVersion, path),
			Entropy: 0.455,
		})
	}
	for i := 0; sharedTotal+devTotal < 215; i++ {
		mb := 2.0
		sharedTotal += mb
		path := fmt.Sprintf("/system/framework/shared%02d.jar", i)
		t.Add(rsyncx.File{
			Path:    path,
			Size:    int64(mb * (1 << 20)),
			Hash:    hashContent("android", p.AndroidVersion, path),
			Entropy: 0.42,
		})
	}
	return t
}

// HashContent exposes the synthetic content hash for other packages
// building file trees (app data, APKs).
func HashContent(parts ...string) uint64 { return hashContent(parts...) }
