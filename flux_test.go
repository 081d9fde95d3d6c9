package flux_test

import (
	"testing"

	"flux"
)

// TestPublicAPIQuickstart is the README quickstart, verified.
func TestPublicAPIQuickstart(t *testing.T) {
	home, err := flux.NewDevice(flux.Nexus4("my-phone"))
	if err != nil {
		t.Fatal(err)
	}
	guest, err := flux.NewDevice(flux.Nexus7v2013("my-tablet"))
	if err != nil {
		t.Fatal(err)
	}
	app := flux.AppByPackage("com.netflix.mediaclient")
	if app == nil {
		t.Fatal("Netflix missing from catalog")
	}
	if err := flux.Install(home, *app); err != nil {
		t.Fatal(err)
	}
	if _, err := flux.PairDevices(home, guest, []string{app.Spec.Package}); err != nil {
		t.Fatal(err)
	}
	if _, err := flux.LaunchApp(home, *app); err != nil {
		t.Fatal(err)
	}
	report, err := flux.Migrate(home, guest, app.Spec.Package, flux.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.StateConsistent() {
		t.Error("quickstart migration left inconsistent state")
	}
	if report.Timings.Total() <= 0 {
		t.Error("no time elapsed")
	}
}

func TestCatalogAccessors(t *testing.T) {
	if got := len(flux.EvaluationApps()); got != 18 {
		t.Errorf("EvaluationApps = %d", got)
	}
	cat := flux.PlayStoreCatalog(5000)
	if cat.Len() != 5000 {
		t.Errorf("catalog len = %d", cat.Len())
	}
}
