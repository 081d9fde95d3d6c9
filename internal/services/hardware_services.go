package services

import (
	"fmt"

	"flux/internal/aidl"
	"flux/internal/binder"
)

// This file holds the thinner hardware-facing services of Table 2. Each has
// a decorated interface capturing the calls that matter for migration and
// enough live state to verify replay correctness. Paper method counts and
// decoration LOC are carried into the catalog for the Table 2 report;
// PaperLOC -1 marks services the paper lists as TBD.

// ---------------------------------------------------------------------------
// WifiService

// WifiAIDL is the decorated IWifiManager subset.
const WifiAIDL = `
interface IWifiManager {
    @record {
        @drop this;
    }
    void setWifiEnabled(boolean enabled);

    int getWifiEnabledState();
    void startScan();
    String getConnectionInfo();
}
`

var WifiInterface = aidl.MustParse(WifiAIDL)

// WifiService tracks radio state.
type WifiService struct {
	sys *System
	kv  appKV

	enabled bool
	lastBy  string
}

func newWifiService(s *System) *WifiService {
	w := &WifiService{sys: s, enabled: true}
	disp := aidl.NewDispatcher(WifiInterface).
		Handle("setWifiEnabled", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			w.enabled = args.Bool(0)
			w.lastBy = pkg
			w.kv.set(pkg, "wifi", fmt.Sprintf("%t", w.enabled))
			return nil
		}).
		Handle("getWifiEnabledState", func(call *binder.Call, args aidl.Args) error {
			state := int32(1)
			if w.enabled {
				state = 3 // WIFI_STATE_ENABLED
			}
			call.Reply.WriteInt32(state)
			return nil
		}).
		Handle("startScan", func(call *binder.Call, args aidl.Args) error { return nil }).
		Handle("getConnectionInfo", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteString(s.cfg.NetworkName)
			return nil
		})
	s.register("wifi", WifiInterface, disp, w)
	return w
}

func (w *WifiService) AppState(pkg string) map[string]string {
	return w.kv.snapshot(pkg)
}
func (w *WifiService) ForgetApp(pkg string) { w.kv.forget(pkg) }

// Enabled reports whether the radio is up.
func (w *WifiService) Enabled() bool { return w.enabled }

// ---------------------------------------------------------------------------
// ConnectivityManagerService

// ConnectivityAIDL is the decorated IConnectivityManager subset.
const ConnectivityAIDL = `
interface IConnectivityManager {
    @record {
        @drop this;
    }
    void setAirplaneMode(boolean enable);

    String getActiveNetworkInfo();
    boolean isActiveNetworkMetered();
}
`

var ConnectivityInterface = aidl.MustParse(ConnectivityAIDL)

// ConnectivityManagerService reports the device's active network.
type ConnectivityManagerService struct {
	sys     *System
	kv      appKV
	network string
}

func newConnectivityManagerService(s *System, network string) *ConnectivityManagerService {
	c := &ConnectivityManagerService{sys: s, network: network}
	disp := aidl.NewDispatcher(ConnectivityInterface).
		Handle("setAirplaneMode", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			c.kv.set(pkg, "airplane", fmt.Sprintf("%t", args.Bool(0)))
			return nil
		}).
		Handle("getActiveNetworkInfo", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteString(c.network)
			return nil
		}).
		Handle("isActiveNetworkMetered", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteBool(false)
			return nil
		})
	s.register("connectivity", ConnectivityInterface, disp, c)
	return c
}

func (c *ConnectivityManagerService) AppState(pkg string) map[string]string {
	return c.kv.snapshot(pkg)
}
func (c *ConnectivityManagerService) ForgetApp(pkg string) { c.kv.forget(pkg) }

// Network returns the active network name.
func (c *ConnectivityManagerService) Network() string { return c.network }

// ---------------------------------------------------------------------------
// LocationManagerService

// LocationAIDL is the decorated ILocationManager subset.
const LocationAIDL = `
interface ILocationManager {
    @record {
        @drop this;
        @if provider;
    }
    void requestLocationUpdates(String provider, long minTime, float minDistance);

    @record {
        @drop this, requestLocationUpdates;
        @if provider;
    }
    void removeUpdates(String provider);

    String getLastKnownLocation(String provider);
}
`

var LocationInterface = aidl.MustParse(LocationAIDL)

// LocationManagerService tracks per-app location subscriptions.
type LocationManagerService struct {
	sys  *System
	subs appSet
}

func newLocationManagerService(s *System) *LocationManagerService {
	l := &LocationManagerService{sys: s}
	disp := aidl.NewDispatcher(LocationInterface).
		Handle("requestLocationUpdates", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			l.subs.add(pkg, args.String(0))
			return nil
		}).
		Handle("removeUpdates", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			l.subs.remove(pkg, args.String(0))
			return nil
		}).
		Handle("getLastKnownLocation", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteString("44.837,-0.579") // Bordeaux
			return nil
		})
	s.register("location", LocationInterface, disp, l)
	return l
}

func (l *LocationManagerService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	if v := l.subs.render(pkg); v != "" {
		out["providers"] = v
	}
	return out
}
func (l *LocationManagerService) ForgetApp(pkg string) { l.subs.forget(pkg) }

// Subscribed reports whether pkg listens to provider.
func (l *LocationManagerService) Subscribed(pkg, provider string) bool {
	return l.subs.has(pkg, provider)
}

// ---------------------------------------------------------------------------
// PowerManagerService

// PowerAIDL is the decorated IPowerManager subset.
const PowerAIDL = `
interface IPowerManager {
    @record {
        @drop this;
        @if tag;
    }
    void acquireWakeLock(String tag, int levelAndFlags);

    @record {
        @drop this, acquireWakeLock;
        @if tag;
    }
    void releaseWakeLock(String tag);

    boolean isScreenOn();
    void goToSleep(long time);
    void wakeUp(long time);
}
`

var PowerInterface = aidl.MustParse(PowerAIDL)

// PowerManagerService fronts the kernel wakelock driver for apps.
type PowerManagerService struct {
	sys   *System
	locks appSet
}

func newPowerManagerService(s *System) *PowerManagerService {
	p := &PowerManagerService{sys: s}
	nop := func(call *binder.Call, args aidl.Args) error { return nil }
	disp := aidl.NewDispatcher(PowerInterface).
		Handle("acquireWakeLock", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			tag := args.String(0)
			if !p.locks.has(pkg, tag) {
				p.locks.add(pkg, tag)
				s.Kernel().Wakelocks.Acquire(pkg + ":" + tag)
			}
			return nil
		}).
		Handle("releaseWakeLock", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			tag := args.String(0)
			if p.locks.has(pkg, tag) {
				p.locks.remove(pkg, tag)
				return s.Kernel().Wakelocks.Release(pkg + ":" + tag)
			}
			return nil
		}).
		Handle("isScreenOn", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteBool(true)
			return nil
		}).
		Handle("goToSleep", nop).
		Handle("wakeUp", nop)
	s.register("power", PowerInterface, disp, p)
	return p
}

func (p *PowerManagerService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	if v := p.locks.render(pkg); v != "" {
		out["wakelocks"] = v
	}
	return out
}

// ForgetApp releases the app's kernel wakelocks so a migrated-away app
// cannot keep the home device awake.
func (p *PowerManagerService) ForgetApp(pkg string) {
	for _, tag := range p.locks.members(pkg) {
		_ = p.sys.Kernel().Wakelocks.Release(pkg + ":" + tag)
	}
	p.locks.forget(pkg)
}

// ---------------------------------------------------------------------------
// VibratorService

// VibratorAIDL is the decorated IVibratorService.
const VibratorAIDL = `
interface IVibratorService {
    @record {
        @drop this;
    }
    void vibrate(long milliseconds);

    @record {
        @drop this, vibrate, vibratePattern;
    }
    void cancelVibrate();

    @record {
        @drop this;
    }
    void vibratePattern(String pattern);

    boolean hasVibrator();
}
`

var VibratorInterface = aidl.MustParse(VibratorAIDL)

// VibratorService tracks the outstanding vibration request.
type VibratorService struct {
	sys *System
	kv  appKV
}

func newVibratorService(s *System) *VibratorService {
	v := &VibratorService{sys: s}
	disp := aidl.NewDispatcher(VibratorInterface).
		Handle("vibrate", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			v.kv.set(pkg, "vibrating", fmt.Sprintf("%d", args.Long(0)))
			return nil
		}).
		Handle("cancelVibrate", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			v.kv.del(pkg, "vibrating")
			v.kv.del(pkg, "pattern")
			return nil
		}).
		Handle("vibratePattern", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			v.kv.set(pkg, "pattern", args.String(0))
			return nil
		}).
		Handle("hasVibrator", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteBool(true)
			return nil
		})
	s.register("vibrator", VibratorInterface, disp, v)
	return v
}

func (v *VibratorService) AppState(pkg string) map[string]string {
	return v.kv.snapshot(pkg)
}
func (v *VibratorService) ForgetApp(pkg string) { v.kv.forget(pkg) }

// ---------------------------------------------------------------------------
// InputMethodManagerService

// InputMethodAIDL is the decorated IInputMethodManager subset.
const InputMethodAIDL = `
interface IInputMethodManager {
    @record {
        @drop this;
    }
    void setInputMethod(String id);

    @record {
        @drop this, showSoftInput;
    }
    void hideSoftInput(int flags);

    @record {
        @drop this, hideSoftInput;
    }
    void showSoftInput(int flags);

    String getCurrentInputMethod();
}
`

var InputMethodInterface = aidl.MustParse(InputMethodAIDL)

// InputMethodManagerService tracks the selected IME and soft-input state.
type InputMethodManagerService struct {
	sys *System
	kv  appKV
}

func newInputMethodManagerService(s *System) *InputMethodManagerService {
	im := &InputMethodManagerService{sys: s}
	disp := aidl.NewDispatcher(InputMethodInterface).
		Handle("setInputMethod", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			im.kv.set(pkg, "ime", args.String(0))
			return nil
		}).
		Handle("showSoftInput", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			im.kv.set(pkg, "softinput", "shown")
			return nil
		}).
		Handle("hideSoftInput", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			im.kv.del(pkg, "softinput")
			return nil
		}).
		Handle("getCurrentInputMethod", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteString("com.android.inputmethod.latin")
			return nil
		})
	s.register("input_method", InputMethodInterface, disp, im)
	return im
}

func (im *InputMethodManagerService) AppState(pkg string) map[string]string {
	return im.kv.snapshot(pkg)
}
func (im *InputMethodManagerService) ForgetApp(pkg string) { im.kv.forget(pkg) }

// ---------------------------------------------------------------------------
// InputManagerService

// InputAIDL is the decorated IInputManager subset.
const InputAIDL = `
interface IInputManager {
    @record {
        @drop this;
    }
    void setPointerSpeed(int speed);

    int getInputDeviceCount();
}
`

var InputInterface = aidl.MustParse(InputAIDL)

// InputManagerService tracks pointer configuration.
type InputManagerService struct {
	sys *System
	kv  appKV
}

func newInputManagerService(s *System) *InputManagerService {
	in := &InputManagerService{sys: s}
	disp := aidl.NewDispatcher(InputInterface).
		Handle("setPointerSpeed", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			in.kv.set(pkg, "pointerSpeed", fmt.Sprintf("%d", args.Int(0)))
			return nil
		}).
		Handle("getInputDeviceCount", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteInt32(2)
			return nil
		})
	s.register("input", InputInterface, disp, in)
	return in
}

func (in *InputManagerService) AppState(pkg string) map[string]string {
	return in.kv.snapshot(pkg)
}
func (in *InputManagerService) ForgetApp(pkg string) { in.kv.forget(pkg) }

// ---------------------------------------------------------------------------
// CountryDetectorService

// CountryAIDL is the decorated ICountryDetector (3 methods in Table 2).
const CountryAIDL = `
interface ICountryDetector {
    String detectCountry();

    @record {
        @drop this;
    }
    void addCountryListener();

    @record {
        @drop this, addCountryListener;
    }
    void removeCountryListener();
}
`

var CountryInterface = aidl.MustParse(CountryAIDL)

// CountryDetectorService tracks listener registrations.
type CountryDetectorService struct {
	sys *System
	kv  appKV
}

func newCountryDetectorService(s *System) *CountryDetectorService {
	c := &CountryDetectorService{sys: s}
	disp := aidl.NewDispatcher(CountryInterface).
		Handle("detectCountry", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteString("FR")
			return nil
		}).
		Handle("addCountryListener", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			c.kv.set(pkg, "listener", "registered")
			return nil
		}).
		Handle("removeCountryListener", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			c.kv.del(pkg, "listener")
			return nil
		})
	s.register("country_detector", CountryInterface, disp, c)
	return c
}

func (c *CountryDetectorService) AppState(pkg string) map[string]string {
	return c.kv.snapshot(pkg)
}
func (c *CountryDetectorService) ForgetApp(pkg string) { c.kv.forget(pkg) }

// ---------------------------------------------------------------------------
// CameraManagerService

// CameraAIDL is the decorated ICameraService subset.
const CameraAIDL = `
interface ICameraService {
    @record {
        @drop this;
        @if cameraId;
    }
    void connectDevice(int cameraId);

    @record {
        @drop this, connectDevice;
        @if cameraId;
    }
    void disconnectDevice(int cameraId);

    int getNumberOfCameras();
}
`

var CameraInterface = aidl.MustParse(CameraAIDL)

// CameraManagerService tracks per-app camera connections.
type CameraManagerService struct {
	sys  *System
	open appSet
}

func newCameraManagerService(s *System) *CameraManagerService {
	c := &CameraManagerService{sys: s}
	disp := aidl.NewDispatcher(CameraInterface).
		Handle("connectDevice", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			c.open.add(pkg, fmt.Sprintf("cam%d", args.Int(0)))
			return nil
		}).
		Handle("disconnectDevice", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			c.open.remove(pkg, fmt.Sprintf("cam%d", args.Int(0)))
			return nil
		}).
		Handle("getNumberOfCameras", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteInt32(2)
			return nil
		})
	s.register("camera", CameraInterface, disp, c)
	return c
}

func (c *CameraManagerService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	if v := c.open.render(pkg); v != "" {
		out["open"] = v
	}
	return out
}
func (c *CameraManagerService) ForgetApp(pkg string) { c.open.forget(pkg) }

// ---------------------------------------------------------------------------
// BluetoothService (paper LOC: TBD)

// BluetoothAIDL is the decorated IBluetooth subset.
const BluetoothAIDL = `
interface IBluetooth {
    @record {
        @drop this, disable;
    }
    void enable();

    @record {
        @drop this, enable;
    }
    void disable();

    int getState();
}
`

var BluetoothInterface = aidl.MustParse(BluetoothAIDL)

// BluetoothService tracks adapter state requests per app.
type BluetoothService struct {
	sys *System
	kv  appKV
}

func newBluetoothService(s *System) *BluetoothService {
	b := &BluetoothService{sys: s}
	disp := aidl.NewDispatcher(BluetoothInterface).
		Handle("enable", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			b.kv.set(pkg, "adapter", "on")
			return nil
		}).
		Handle("disable", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			b.kv.set(pkg, "adapter", "off")
			return nil
		}).
		Handle("getState", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteInt32(12) // STATE_ON
			return nil
		})
	s.register("bluetooth_manager", BluetoothInterface, disp, b)
	return b
}

func (b *BluetoothService) AppState(pkg string) map[string]string {
	return b.kv.snapshot(pkg)
}
func (b *BluetoothService) ForgetApp(pkg string) { b.kv.forget(pkg) }

// ---------------------------------------------------------------------------
// SerialService (paper LOC: TBD)

// SerialAIDL is the decorated ISerialManager.
const SerialAIDL = `
interface ISerialManager {
    String getSerialPorts();

    @record {
        @drop this;
        @if name;
    }
    void openSerialPort(String name);
}
`

var SerialInterface = aidl.MustParse(SerialAIDL)

// SerialService tracks open serial ports per app.
type SerialService struct {
	sys  *System
	open appSet
}

func newSerialService(s *System) *SerialService {
	sr := &SerialService{sys: s}
	disp := aidl.NewDispatcher(SerialInterface).
		Handle("getSerialPorts", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteString("/dev/ttyS0")
			return nil
		}).
		Handle("openSerialPort", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			sr.open.add(pkg, args.String(0))
			return nil
		})
	s.register("serial", SerialInterface, disp, sr)
	return sr
}

func (sr *SerialService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	if v := sr.open.render(pkg); v != "" {
		out["ports"] = v
	}
	return out
}
func (sr *SerialService) ForgetApp(pkg string) { sr.open.forget(pkg) }

// ---------------------------------------------------------------------------
// UsbService (paper LOC: TBD)

// UsbAIDL is the decorated IUsbManager subset.
const UsbAIDL = `
interface IUsbManager {
    @record {
        @drop this;
    }
    void setCurrentFunction(String function);

    @record {
        @drop this;
        @if device;
    }
    void grantDevicePermission(String device);

    boolean hasDevicePermission(String device);
}
`

var UsbInterface = aidl.MustParse(UsbAIDL)

// UsbService tracks USB function selection and device grants.
type UsbService struct {
	sys    *System
	kv     appKV
	grants appSet
}

func newUsbService(s *System) *UsbService {
	u := &UsbService{sys: s}
	disp := aidl.NewDispatcher(UsbInterface).
		Handle("setCurrentFunction", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			u.kv.set(pkg, "function", args.String(0))
			return nil
		}).
		Handle("grantDevicePermission", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			u.grants.add(pkg, args.String(0))
			return nil
		}).
		Handle("hasDevicePermission", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			call.Reply.WriteBool(u.grants.has(pkg, args.String(0)))
			return nil
		})
	s.register("usb", UsbInterface, disp, u)
	return u
}

func (u *UsbService) AppState(pkg string) map[string]string {
	out := u.kv.snapshot(pkg)
	if v := u.grants.render(pkg); v != "" {
		out["grants"] = v
	}
	return out
}
func (u *UsbService) ForgetApp(pkg string) {
	u.kv.forget(pkg)
	u.grants.forget(pkg)
}
