package services_test

import (
	"maps"
	"testing"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/services"
)

// FuzzDispatch sends arbitrary request parcels from an app's process to
// every method the services package ships. The first two inputs pick an
// interface from services.AIDLSpecs() and one of its methods; the bytes
// decode as the request parcel. Whatever the bytes, no service panics,
// and a parcel aidl.CheckArgs rejects is refused with an error before
// any handler runs, so the app's service state does not change.
//
// Seeds: every method's well-formed parcel, an empty parcel, and the
// well-formed parcel with its first argument's kind swapped.
func FuzzDispatch(f *testing.F) {
	specs := services.AIDLSpecs()
	for i, s := range specs {
		for j, m := range s.Itf.Methods {
			good := seedParcel(m, false)
			p, err := binder.UnmarshalParcel(good)
			if err != nil {
				f.Fatal(err)
			}
			if _, err := aidl.CheckArgs(m, p); err != nil {
				f.Fatalf("%s.%s seed: %v", s.Itf.Name, m.Name, err)
			}
			f.Add(uint8(i), uint8(j), good)
			f.Add(uint8(i), uint8(j), binder.NewParcel().Marshal())
			if len(m.Params) > 0 {
				f.Add(uint8(i), uint8(j), seedParcel(m, true))
			}
		}
	}

	fx := newFixture(f)
	const pkg = "com.example.app"
	proc := fx.app.Process().Binder()
	handles := make([]binder.Handle, len(specs))
	for i, s := range specs {
		if s.Service != "sensorservice.connection" {
			h, err := binder.GetService(proc, s.Service)
			if err != nil {
				f.Fatal(err)
			}
			handles[i] = h
			continue
		}
		// Connection objects are not in the ServiceManager: an app gets
		// one from createSensorEventConnection.
		reply, err := fx.client(f, services.SensorInterface, "sensorservice").Call("createSensorEventConnection", pkg)
		if err != nil {
			f.Fatal(err)
		}
		if handles[i], err = reply.HandleAt(0); err != nil {
			f.Fatal(err)
		}
	}

	f.Fuzz(func(t *testing.T, itf, method uint8, data []byte) {
		s := specs[int(itf)%len(specs)]
		m := s.Itf.Methods[int(method)%len(s.Itf.Methods)]
		p, err := binder.UnmarshalParcel(data)
		if err != nil {
			return
		}
		_, checkErr := aidl.CheckArgs(m, p)
		before := fx.dev.System.AppState(pkg)
		_, err = proc.Transact(handles[int(itf)%len(specs)], m.Code, p)
		if checkErr == nil {
			return
		}
		if err == nil {
			t.Fatalf("%s.%s accepted %v, which CheckArgs rejects: %v", s.Itf.Name, m.Name, p, checkErr)
		}
		if after := fx.dev.System.AppState(pkg); !maps.Equal(before, after) {
			t.Fatalf("%s.%s refused %v but changed the app's state:\n  before %v\n  after  %v", s.Itf.Name, m.Name, p, before, after)
		}
	})
}

// seedParcel writes one entry per parameter of m, of the kind its type
// marshals to; swapFirst writes the first argument as another kind.
func seedParcel(m *aidl.Method, swapFirst bool) []byte {
	p := binder.NewParcel()
	for i, param := range m.Params {
		t := param.Type
		if swapFirst && i == 0 {
			t = aidl.TypeString
			if param.Type == aidl.TypeString || param.Type == aidl.TypeParcelable {
				t = aidl.TypeInt
			}
		}
		switch t {
		case aidl.TypeInt:
			p.WriteInt32(1)
		case aidl.TypeLong:
			p.WriteInt64(1)
		case aidl.TypeFloat:
			p.WriteFloat64(1)
		case aidl.TypeBool:
			p.WriteBool(true)
		case aidl.TypeString, aidl.TypeParcelable:
			p.WriteString("seed")
		case aidl.TypeBytes:
			p.WriteBytes([]byte("seed"))
		case aidl.TypeBinder:
			p.WriteHandle(binder.ContextManagerHandle)
		case aidl.TypeFD:
			p.WriteFD(0)
		}
	}
	return p.Marshal()
}
