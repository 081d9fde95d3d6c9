//go:build !race

// The race detector changes how many objects a call allocates, so this
// file builds only without it.

package apps_test

import (
	"testing"
	"time"

	"flux/internal/apps"
	"flux/internal/device"
)

// TestRecordedCallAllocs pins what one app-level call that Selective
// Record records allocates end to end: the session helper's boxed
// arguments, the presized request parcel, the transaction's one frame
// (call and reply), the service's own work, and what the log keeps of
// the entry (its struct, one buffer for request and reply, its cached
// @if keys). SetAlarm re-arms one PendingIntent, so each call replaces
// the entry the previous one recorded; Notify re-posts one id, which
// enqueueNotification's bare @record appends.
func TestRecordedCallAllocs(t *testing.T) {
	dev, err := device.New(device.Nexus4("allocs"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := apps.Launch(dev, *apps.ByPackage("com.whatsapp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		pinned float64
		call   func() error
	}{
		{"SetAlarm", 13, func() error { return s.SetAlarm(time.Minute, "pi:allocs") }},
		{"Notify", 7, func() error { return s.Notify(7, "n:allocs") }},
	} {
		before := dev.Recorder.Stats().Recorded
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		})
		if dev.Recorder.Stats().Recorded-before != 101 {
			t.Fatalf("%s: the recorder did not record every call", c.name)
		}
		if allocs != c.pinned {
			t.Errorf("one recorded %s allocated %.0f objects, pinned at %.0f; re-pin only for a deliberate change", c.name, allocs, c.pinned)
		}
	}
}
