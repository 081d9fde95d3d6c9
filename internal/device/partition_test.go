package device_test

import (
	"testing"

	"flux/internal/apps"
	"flux/internal/device"
	"flux/internal/migration"
	"flux/internal/pairing"
)

// TestSharedSystemPartition checks that devices of one profile share one
// system partition tree and devices of different models do not, and that
// pairing and a migration between two devices leave both shared trees
// equal to freshly built ones.
func TestSharedSystemPartition(t *testing.T) {
	home, err := device.New(device.Nexus4("home"))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := device.New(device.Nexus4("twin"))
	if err != nil {
		t.Fatal(err)
	}
	guest, err := device.New(device.Nexus7_2013("guest"))
	if err != nil {
		t.Fatal(err)
	}
	if home.SystemTree() != twin.SystemTree() {
		t.Error("two Nexus 4 boots built separate system partitions")
	}
	if home.SystemTree() == guest.SystemTree() {
		t.Error("a Nexus 4 and a Nexus 7 (2013) share one system partition")
	}

	a := apps.Migratable()[0]
	if err := apps.Install(home, a); err != nil {
		t.Fatal(err)
	}
	if _, err := pairing.Pair(home, guest, []string{a.Spec.Package}); err != nil {
		t.Fatal(err)
	}
	if _, err := apps.Launch(home, a); err != nil {
		t.Fatal(err)
	}
	if _, err := migration.New(home, guest, migration.Options{}).Migrate(a.Spec.Package); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*device.Device{home, guest} {
		if !d.SystemTree().Equal(device.SystemPartition(d.Profile())) {
			t.Errorf("%s: shared system partition changed after pairing and migration", d.Profile().Model)
		}
	}
}
