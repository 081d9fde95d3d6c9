package services

import (
	"sort"
	"sync"

	"flux/internal/aidl"
)

// AIDLSpec pairs one shipped service definition with its compiled
// interface and its Table 2 row, for consumers that need the full spec
// catalog without booting a System: fluxvet analyzes every decorated
// interface, replay builds its descriptor table, and Catalog renders
// Table 2.
type AIDLSpec struct {
	// Service is the ServiceManager registration name.
	Service string
	// Source is the decorated AIDL definition.
	Source string
	// Itf is the compiled interface.
	Itf *aidl.Interface
	// Hardware, PaperMethods and PaperLOC are the paper's Table 2 row:
	// whether the service is hardware-facing, and the method count and
	// decoration LOC of the full Android interface (PaperLOC < 0: the
	// paper lists TBD). PaperMethods is 0 for the two interfaces Table 2
	// does not list, the sensor connection and the package manager.
	Hardware     bool
	PaperMethods int
	PaperLOC     int
}

// specs is the one spec table per process, in registration order.
var specs = []AIDLSpec{
	{"notification", NotificationAIDL, NotificationInterface, false, 14, 34},
	{"alarm", AlarmAIDL, AlarmInterface, false, 4, 20},
	{"sensorservice", SensorAIDL, SensorInterface, true, 6, 94},
	{"sensorservice.connection", SensorConnectionAIDL, SensorConnectionInterface, false, 0, 0},
	{"audio", AudioAIDL, AudioInterface, true, 71, 150},
	{"activity", ActivityAIDL, ActivityInterface, false, 178, 130},
	{"clipboard", ClipboardAIDL, ClipboardInterface, false, 7, 6},
	{"wifi", WifiAIDL, WifiInterface, true, 47, 54},
	{"connectivity", ConnectivityAIDL, ConnectivityInterface, true, 59, 26},
	{"location", LocationAIDL, LocationInterface, true, 13, 15},
	{"power", PowerAIDL, PowerInterface, true, 19, 14},
	{"vibrator", VibratorAIDL, VibratorInterface, true, 4, 26},
	{"input_method", InputMethodAIDL, InputMethodInterface, true, 29, 37},
	{"input", InputAIDL, InputInterface, true, 15, 11},
	{"keyguard", KeyguardAIDL, KeyguardInterface, false, 22, 16},
	{"uimode", UiModeAIDL, UiModeInterface, false, 5, 9},
	{"servicediscovery", NsdAIDL, NsdInterface, false, 2, 3},
	{"textservices", TextServicesAIDL, TextServicesInterface, false, 9, 16},
	{"country_detector", CountryAIDL, CountryInterface, true, 3, 5},
	{"camera", CameraAIDL, CameraInterface, true, 8, 31},
	{"bluetooth_manager", BluetoothAIDL, BluetoothInterface, true, 202, -1},
	{"serial", SerialAIDL, SerialInterface, true, 2, -1},
	{"usb", UsbAIDL, UsbInterface, true, 19, -1},
	{"package", PackageAIDL, PackageInterface, false, 0, 0},
}

// AIDLSpecs returns every AIDL definition the services package ships —
// the 22 decorated Table 2 services, the sensor connection and the
// undecorated package manager — in registration order. The slice is
// shared by every caller and must not be modified.
func AIDLSpecs() []AIDLSpec { return specs }

// Registration is one service's Table 2 row: the paper's counts for the
// full Android interface next to what this reproduction's subset
// implements (MeasuredMethods) and decorates (MeasuredLOC).
type Registration struct {
	Name       string // ServiceManager name
	Descriptor string
	Hardware   bool // hardware-facing per Table 2's split
	// PaperLOC < 0 means the paper lists TBD.
	PaperMethods    int
	PaperLOC        int
	MeasuredMethods int
	MeasuredLOC     int
}

// Catalog returns the 22 Table 2 rows sorted by service name. They are
// built, and their decoration lines counted, once per process; the slice
// is shared and must not be modified.
func Catalog() []Registration { return catalog() }

var catalog = sync.OnceValue(func() []Registration {
	var out []Registration
	for _, s := range specs {
		if s.PaperMethods == 0 {
			continue
		}
		out = append(out, Registration{
			Name:            s.Service,
			Descriptor:      s.Itf.Name,
			Hardware:        s.Hardware,
			PaperMethods:    s.PaperMethods,
			PaperLOC:        s.PaperLOC,
			MeasuredMethods: len(s.Itf.Methods),
			MeasuredLOC:     aidl.DecorationLOC(s.Source),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
})

// InterfacesByDescriptor returns the shipped compiled interfaces keyed by
// descriptor, the shape fluxvet's log linter consumes.
func InterfacesByDescriptor() map[string]*aidl.Interface {
	out := make(map[string]*aidl.Interface)
	for _, s := range AIDLSpecs() {
		out[s.Itf.Name] = s.Itf
	}
	return out
}
