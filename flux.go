// Package flux is the public API of the Flux reproduction: multi-surface
// computing in Android through app migration (Van't Hof, Jamjoom, Nieh,
// Williams — EuroSys 2015).
//
// Flux makes any unmodified app multi-surface by migrating it live between
// heterogeneous devices, with no cloud backing. Two mechanisms carry it:
// Selective Record / Adaptive Replay (record only the Binder service calls
// that still matter, replay them — adapted — against the guest device's own
// services) and CRIA (Checkpoint/Restore In Android: checkpoint an app
// whose device-specific state was first discarded through Android's own
// background/trim-memory/eglUnload machinery, restore it in a private PID
// namespace with Binder handles re-bound by name).
//
// The Android substrate underneath (Binder driver, kernel drivers, the 22
// decorated system services of the paper's Table 2, the framework runtime,
// the GPU stack, devices and wireless links) is a faithful functional
// simulation implemented in the internal packages; see DESIGN.md for the
// substitution map.
//
// The façade exports what the examples and commands call, plus the
// result types of those calls. Fault injection, the refusal errors,
// conflict resolution, the commuter scenario and the fleet engine live in
// the internal packages (faults, migration, experiments, fleet).
//
// Typical use:
//
//	home, _ := flux.NewDevice(flux.Nexus4("my-phone"))
//	guest, _ := flux.NewDevice(flux.Nexus7v2013("my-tablet"))
//	app := flux.AppByPackage("com.netflix.mediaclient")
//	flux.Install(home, *app)
//	flux.PairDevices(home, guest, []string{app.Spec.Package})
//	flux.LaunchApp(home, *app)
//	report, _ := flux.Migrate(home, guest, app.Spec.Package, flux.MigrateOptions{})
//	fmt.Println(report.Timings.Total())
package flux

import (
	"flux/internal/apps"
	"flux/internal/chunkstore"
	"flux/internal/device"
	"flux/internal/migration"
	"flux/internal/pairing"
	"flux/internal/playstore"
)

// Device is one simulated Android device running Flux: kernel, Binder
// driver, framework runtime, decorated system services, and the Selective
// Record recorder.
type Device = device.Device

// DeviceProfile describes a device model's hardware and software.
type DeviceProfile = device.Profile

// App couples a Table 3 evaluation app with its workload driver.
type App = apps.App

// Session is a running app with service-client helpers.
type Session = apps.Session

// MigrateOptions tunes a migration.
type MigrateOptions = migration.Options

// MigrationReport is the full outcome of one migration: per-stage timings,
// transfer accounting, replay statistics, and the before/after service
// state used to verify correctness.
type MigrationReport = migration.Report

// PairingResult quantifies a pairing run.
type PairingResult = pairing.Result

// ChunkStore is a per-pair, per-device content-addressed cache of
// migration chunks keyed by SHA-256, with LRU eviction under a byte
// budget (delta migration, DESIGN.md §5g). Set one on
// MigrateOptions.Cache (receiver) and MigrateOptions.SourceCache
// (sender): the migration opens with a digest negotiation and ships only
// the chunks the receiver does not already hold. A nil store — the
// default — disables delta migration entirely.
type ChunkStore = chunkstore.Store

// NewChunkStore builds a chunk store with the given LRU byte budget;
// budget <= 0 leaves the store unbounded.
func NewChunkStore(budget int64) *ChunkStore { return chunkstore.New(budget) }

// Nexus4 is the evaluation's phone profile (Snapdragon S4 Pro, Adreno 320,
// 768x1280, kernel 3.4, 5 GHz 802.11n).
func Nexus4(name string) DeviceProfile { return device.Nexus4(name) }

// Nexus7v2012 is the 2012 tablet (Tegra 3, ULP GeForce, 1280x800, kernel
// 3.1, congested 2.4 GHz radio).
func Nexus7v2012(name string) DeviceProfile { return device.Nexus7_2012(name) }

// Nexus7v2013 is the 2013 tablet (Snapdragon S4 Pro, Adreno 320, 1920x1200,
// kernel 3.4).
func Nexus7v2013(name string) DeviceProfile { return device.Nexus7_2013(name) }

// NewDevice boots a device from a profile.
func NewDevice(p DeviceProfile) (*Device, error) { return device.New(p) }

// EvaluationApps returns the paper's Table 3 catalog: the eighteen top free
// Google Play apps with their workloads.
func EvaluationApps() []App { return apps.Catalog() }

// AppByPackage finds a Table 3 app, or returns nil.
func AppByPackage(pkg string) *App { return apps.ByPackage(pkg) }

// Install records an app on a device with a synthesized APK and data tree.
func Install(d *Device, a App) error { return apps.Install(d, a) }

// LaunchApp starts an installed app and runs its workload, returning the
// live session.
func LaunchApp(d *Device, a App) (*Session, error) { return apps.Launch(d, a) }

// PairDevices performs Flux's one-time pairing: frameworks sync with
// hard-link reuse, APK/data sync, pseudo-install of each app's wrapper.
func PairDevices(home, guest *Device, pkgs []string) (PairingResult, error) {
	return pairing.Pair(home, guest, pkgs)
}

// Migrate moves a running app from home to guest: preparation, CRIA
// checkpoint, transfer, restore, and reintegration with adaptive replay.
func Migrate(home, guest *Device, pkg string, opts MigrateOptions) (*MigrationReport, error) {
	return migration.New(home, guest, opts).Migrate(pkg)
}

// PlayStoreCatalog synthesizes the paper's 488,259-app Google Play crawl at
// the given size (use playstore.PaperCatalogSize for the full figure).
func PlayStoreCatalog(n int) *playstore.Catalog { return playstore.Generate(n) }
