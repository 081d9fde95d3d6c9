package device

import "testing"

// TestNewAllocs pins how many objects booting one device allocates:
// kernel, Binder driver, system_server with every service registered on
// the ServiceManager and the recorder, and the framework runtime. The
// decorations' rule tables are compiled once per process by aidl.Parse,
// the Table 2 catalog is built once per process and the system partition
// once per profile, so a boot builds none of them; the warm-up run
// AllocsPerRun makes builds them. The recorder holds its interface
// table by value in one presized map, and a service's per-app state
// allocates nothing until an app writes to it.
func TestNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes how many objects a boot allocates")
	}
	const pinned = 247
	p := Nexus4("allocs")
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != pinned {
		t.Fatalf("device.New allocated %.0f objects, pinned at %d; re-pin only for a deliberate change", allocs, pinned)
	}
}

// BenchmarkNew boots one device per iteration for each evaluation
// profile; with -benchmem it reports what TestNewAllocs pins for the
// Nexus 4.
func BenchmarkNew(b *testing.B) {
	for _, p := range []Profile{Nexus4("bench"), Nexus7_2012("bench"), Nexus7_2013("bench")} {
		b.Run(p.Model, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
