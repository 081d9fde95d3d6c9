package device

import "testing"

// TestNewAllocs pins how many objects booting one device allocates:
// kernel, Binder driver, system_server with every service registered on
// the ServiceManager and the recorder, and the framework runtime. The
// decorations' rule tables are compiled once per process by aidl.Parse,
// so a boot builds none of them.
func TestNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes how many objects a boot allocates")
	}
	const pinned = 555
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
