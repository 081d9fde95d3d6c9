// Command fluxd demonstrates a Flux migration between two simulated
// devices with the checkpoint image shipped over a real TCP loopback
// connection — the wire path a deployment would use — while stage timings
// remain governed by the modelled wireless link.
//
// Usage:
//
//	fluxd -app com.netflix.mediaclient -from nexus4 -to nexus7-2013
//	fluxd -app com.whatsapp -trace trace.json
//	fluxd -list
//
// -trace writes the migration's span tree as Chrome trace-event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"flux"
	"flux/internal/device"
	"flux/internal/migration"
	"flux/internal/obs"
)

func main() {
	var (
		appPkg    = flag.String("app", "com.netflix.mediaclient", "package to migrate (see -list)")
		from      = flag.String("from", "nexus4", "home device model")
		to        = flag.String("to", "nexus7-2013", "guest device model")
		list      = flag.Bool("list", false, "list migratable evaluation apps")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON file of the migration's span tree")
	)
	flag.Parse()
	if *list {
		for _, a := range flux.EvaluationApps() {
			note := ""
			if a.Spec.PreserveEGLContext {
				note = " (refused: preserves EGL context)"
			}
			if a.Spec.ExtraProcesses > 0 {
				note = " (refused: multi-process)"
			}
			fmt.Printf("  %-28s %s%s\n", a.Spec.Package, a.Spec.Label, note)
		}
		return
	}
	if *tracePath != "" {
		obs.SetEnabled(true)
	}
	if err := run(*appPkg, *from, *to); err != nil {
		fmt.Fprintln(os.Stderr, "fluxd:", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		if err := obs.T().WriteChromeTraceFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "fluxd: writing trace:", err)
			os.Exit(1)
		}
		total, dropped := obs.T().Stats()
		fmt.Printf("\nwrote %s (%d spans, %d dropped)\n", *tracePath, total-dropped, dropped)
	}
}

func run(appPkg, from, to string) error {
	homeProfile, err := device.ProfileByName(from, "home-"+from)
	if err != nil {
		return err
	}
	guestProfile, err := device.ProfileByName(to, "guest-"+to)
	if err != nil {
		return err
	}
	app := flux.AppByPackage(appPkg)
	if app == nil {
		return fmt.Errorf("app %s is not in the evaluation catalog (try -list)", appPkg)
	}

	home, err := flux.NewDevice(homeProfile)
	if err != nil {
		return err
	}
	guest, err := flux.NewDevice(guestProfile)
	if err != nil {
		return err
	}
	fmt.Printf("home:  %s (%s, kernel %s, %s)\n", home.Name(), homeProfile.Model, homeProfile.KernelVersion, homeProfile.Screen)
	fmt.Printf("guest: %s (%s, kernel %s, %s)\n", guest.Name(), guestProfile.Model, guestProfile.KernelVersion, guestProfile.Screen)

	if err := flux.Install(home, *app); err != nil {
		return err
	}
	pres, err := flux.PairDevices(home, guest, []string{appPkg})
	if err != nil {
		return err
	}
	fmt.Printf("paired: %.1f MB frameworks (%.1f MB after link-dest, %.1f MB compressed over the air)\n",
		float64(pres.ConstantBytes)/(1<<20), float64(pres.TransferBytes)/(1<<20), float64(pres.CompressedBytes)/(1<<20))

	if _, err := flux.LaunchApp(home, *app); err != nil {
		return err
	}
	fmt.Printf("launched %s; running workload: %s\n", app.Spec.Label, app.Workload)

	rep, err := flux.Migrate(home, guest, appPkg, flux.MigrateOptions{})
	if err != nil {
		return err
	}

	// Ship the actual transferred byte volume across a real loopback TCP
	// connection, demonstrating the wire path.
	wireDur, err := shipOverLoopback(rep.TransferredBytes)
	if err != nil {
		fmt.Printf("loopback demo skipped: %v\n", err)
	} else {
		fmt.Printf("loopback TCP demo: %d bytes in %v (modelled WiFi: %v)\n",
			rep.TransferredBytes, wireDur.Round(time.Millisecond), rep.Timings[migration.StageTransfer].Round(time.Millisecond))
	}

	fmt.Println("\nmigration report:")
	fmt.Printf("  preparation:    %8v\n", rep.Timings[migration.StagePreparation].Round(time.Millisecond))
	fmt.Printf("  checkpoint:     %8v\n", rep.Timings[migration.StageCheckpoint].Round(time.Millisecond))
	fmt.Printf("  transfer:       %8v  (%.2f MB)\n", rep.Timings[migration.StageTransfer].Round(time.Millisecond), float64(rep.TransferredBytes)/(1<<20))
	fmt.Printf("  restore:        %8v\n", rep.Timings[migration.StageRestore].Round(time.Millisecond))
	fmt.Printf("  reintegration:  %8v  (replay: %+v)\n", rep.Timings[migration.StageReintegration].Round(time.Millisecond), rep.ReplayStats)
	fmt.Printf("  total:          %8v  (user-perceived %v)\n", rep.Timings.Total().Round(time.Millisecond), rep.Timings.UserPerceived().Round(time.Millisecond))
	if rep.StateConsistent() {
		fmt.Println("  service state:  consistent across devices ✓")
	} else {
		fmt.Println("  service state:  DIVERGED ✗")
	}
	act := rep.App.MainActivity()
	fmt.Printf("  UI on guest:    %s window, drawn for %s\n", act.State(), act.Window().ViewRoot().DrawnFor())
	return nil
}

// shipOverLoopback streams n synthetic bytes through a real TCP socket.
func shipOverLoopback(n int64) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		_, err = io.Copy(io.Discard, conn)
		errc <- err
	}()
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 64<<10)
	var sent int64
	for sent < n {
		chunk := int64(len(buf))
		if n-sent < chunk {
			chunk = n - sent
		}
		m, err := conn.Write(buf[:chunk])
		if err != nil {
			conn.Close()
			return 0, err
		}
		sent += int64(m)
	}
	conn.Close()
	if err := <-errc; err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
