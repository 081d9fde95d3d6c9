package migration_test

import (
	"testing"

	"flux/internal/device"
	"flux/internal/migration"
)

// migratorSink keeps TestNewAllocs' migrator on the heap, as every real
// caller's is.
var migratorSink *migration.Migrator

// TestNewAllocs pins how many objects building a migrator allocates.
// The replay engine shares one process-wide interface table, so a
// migrator costs its own struct and the engine's proxy registry.
func TestNewAllocs(t *testing.T) {
	const pinned = 4
	home, err := device.New(device.Nexus4("home"))
	if err != nil {
		t.Fatal(err)
	}
	guest, err := device.New(device.Nexus7_2013("guest"))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		migratorSink = migration.New(home, guest, migration.Options{})
	})
	if allocs != pinned {
		t.Fatalf("migration.New allocated %.0f objects, pinned at %d; re-pin only for a deliberate change", allocs, pinned)
	}
}
