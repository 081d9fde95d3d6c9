// Package services implements the Android system services Flux decorates
// (paper Table 2): 14 hardware-facing and 8 software services, each with a
// Flux-decorated AIDL interface, live state, and — where the paper calls
// for it — an adaptive-replay proxy hook. The System type assembles them
// into a system_server process on a device's kernel, registering every
// service with the ServiceManager and the Selective Record recorder.
package services

import (
	"fmt"

	"flux/internal/aidl"
	"flux/internal/android"
	"flux/internal/binder"
	"flux/internal/kernel"
	"flux/internal/record"
)

// AppStater is implemented by every service that holds per-app state. The
// migration pipeline snapshots these maps on the home device and asserts
// equality on the guest after adaptive replay — the paper's correctness
// criterion that "the app can interact with system services right where it
// left off".
type AppStater interface {
	// AppState returns a canonical key→value rendering of the service's
	// state for one app. Device-specific values must be normalized out.
	AppState(pkg string) map[string]string
	// ForgetApp drops the app's state (after migration out or uninstall).
	ForgetApp(pkg string)
}

// Config wires a System into its device.
type Config struct {
	Kernel *kernel.Kernel
	// Recorder, if non-nil, has every decorated interface registered on it.
	Recorder *record.Recorder
	// Broadcast delivers an intent to apps; the android.Runtime provides it.
	Broadcast func(android.Intent) int
	// PackageOf resolves pids to packages for per-app service state.
	PackageOf func(pid int) (string, bool)
	// VolumeSteps is the device's maximum volume index per audio stream —
	// the device-specific quantity the audio replay proxy rescales.
	VolumeSteps int
	// NetworkName is the device's active network, reported by the
	// ConnectivityManagerService.
	NetworkName string
}

// System is one device's system_server.
type System struct {
	cfg  Config
	proc *kernel.Process

	Notifications *NotificationManagerService
	Alarms        *AlarmManagerService
	Sensors       *SensorService
	Audio         *AudioService
	Activity      *ActivityManagerService
	Clipboard     *ClipboardService
	Wifi          *WifiService
	Connectivity  *ConnectivityManagerService
	Location      *LocationManagerService
	Power         *PowerManagerService
	Vibrator      *VibratorService
	InputMethod   *InputMethodManagerService
	Input         *InputManagerService
	Keyguard      *KeyguardService
	UiMode        *UiModeManagerService
	Nsd           *NsdService
	TextServices  *TextServicesManagerService
	Country       *CountryDetectorService
	Camera        *CameraManagerService
	Bluetooth     *BluetoothService
	Serial        *SerialService
	Usb           *UsbService
	// Packages is the PackageManagerService. It is not one of Table 2's
	// decorated services (install metadata moves via pairing, not replay)
	// but the pairing phase pseudo-installs through it (paper §3.1).
	Packages *PackageManagerService

	// Boot fills staters and nothing changes it after, so it is read
	// without a lock.
	staters map[string]AppStater
}

// Boot starts system_server and all 22 services.
func Boot(cfg Config) (*System, error) {
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("services: Config.Kernel is required")
	}
	if cfg.VolumeSteps <= 0 {
		cfg.VolumeSteps = 15
	}
	if cfg.NetworkName == "" {
		cfg.NetworkName = "wifi"
	}
	if cfg.Broadcast == nil {
		cfg.Broadcast = func(android.Intent) int { return 0 }
	}
	proc, err := cfg.Kernel.CreateProcess(kernel.ProcessOptions{Name: "system_server", UID: 1000})
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, proc: proc, staters: make(map[string]AppStater, len(Catalog()))}

	s.Notifications = newNotificationManagerService(s)
	s.Alarms = newAlarmManagerService(s)
	s.Sensors = newSensorService(s)
	s.Audio = newAudioService(s, cfg.VolumeSteps)
	s.Activity = newActivityManagerService(s)
	s.Clipboard = newClipboardService(s)
	s.Wifi = newWifiService(s)
	s.Connectivity = newConnectivityManagerService(s, cfg.NetworkName)
	s.Location = newLocationManagerService(s)
	s.Power = newPowerManagerService(s)
	s.Vibrator = newVibratorService(s)
	s.InputMethod = newInputMethodManagerService(s)
	s.Input = newInputManagerService(s)
	s.Keyguard = newKeyguardService(s)
	s.UiMode = newUiModeManagerService(s)
	s.Nsd = newNsdService(s)
	s.TextServices = newTextServicesManagerService(s)
	s.Country = newCountryDetectorService(s)
	s.Camera = newCameraManagerService(s)
	s.Bluetooth = newBluetoothService(s)
	s.Serial = newSerialService(s)
	s.Usb = newUsbService(s)
	s.Packages = newPackageManagerService(s)

	return s, nil
}

// Proc returns the system_server process.
func (s *System) Proc() *kernel.Process { return s.proc }

// Kernel returns the device kernel.
func (s *System) Kernel() *kernel.Kernel { return s.cfg.Kernel }

// callerPkg resolves the calling pid of a transaction to a package name.
func (s *System) callerPkg(call *binder.Call) (string, error) {
	if s.cfg.PackageOf == nil {
		return "", fmt.Errorf("services: no package resolver installed")
	}
	pkg, ok := s.cfg.PackageOf(call.CallingPID)
	if !ok {
		return "", fmt.Errorf("services: cannot resolve pid %d to a package", call.CallingPID)
	}
	return pkg, nil
}

// register publishes a service and threads it through the ServiceManager
// and the recorder.
func (s *System) register(name string, itf *aidl.Interface, svc binder.Transactor, stater AppStater) {
	if _, err := binder.AddService(s.proc.Binder(), name, itf.Name, svc); err != nil {
		panic(fmt.Sprintf("services: registering %s: %v", name, err))
	}
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.RegisterInterface(name, itf)
	}
	if stater != nil {
		s.staters[name] = stater
	}
}

// AppState aggregates every service's state for one app into a canonical
// map keyed "service/key", where service is the ServiceManager name the
// service registered under. It is the equality witness migration tests
// use.
func (s *System) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	for name, st := range s.staters {
		for k, v := range st.AppState(pkg) {
			out[name+"/"+k] = v
		}
	}
	return out
}

// ForgetApp drops every service's state for an app after it migrates away.
func (s *System) ForgetApp(pkg string) {
	for _, st := range s.staters {
		st.ForgetApp(pkg)
	}
}
