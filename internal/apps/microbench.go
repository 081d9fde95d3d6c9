package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"time"

	"flux/internal/android"
	"flux/internal/device"
	"flux/internal/kernel"
	"flux/internal/services"
)

// Microbench is one bar of the paper's Figure 16: a Quadrant Standard
// component or SunSpider, run on Flux (recording enabled) and on vanilla
// AOSP (recording disabled) to measure Selective Record's runtime overhead.
// Each benchmark mixes its characteristic compute kernel with the service
// traffic a real benchmark app generates, so the interposition cost — the
// only thing Flux adds at runtime — is on the measured path.
type Microbench struct {
	Name string
	// Work performs one iteration; calls services through the session.
	Work func(s *Session, i int) error
}

// Microbenches returns the six Figure 16 benchmarks.
func Microbenches() []Microbench {
	return []Microbench{
		{Name: "Quadrant CPU", Work: cpuWork},
		{Name: "Quadrant Mem", Work: memWork},
		{Name: "Quadrant I/O", Work: ioWork},
		{Name: "Quadrant 2D", Work: twoDWork},
		{Name: "Quadrant 3D", Work: threeDWork},
		{Name: "SunSpider", Work: jsWork},
	}
}

func cpuWork(s *Session, i int) error {
	sum := sha256.Sum256(binary.BigEndian.AppendUint64(nil, uint64(i)))
	for j := 0; j < 8; j++ {
		sum = sha256.Sum256(sum[:])
	}
	if i%64 == 0 {
		return s.Call(services.ActivityInterface, "activity", "getMemoryClass")
	}
	return nil
}

func memWork(s *Session, i int) error {
	buf := make([]byte, 64<<10)
	for j := range buf {
		buf[j] = byte(i + j)
	}
	n := 0
	for _, b := range buf {
		n += int(b)
	}
	if n < 0 {
		return fmt.Errorf("impossible")
	}
	if i%64 == 0 {
		return s.Call(services.PowerInterface, "power", "isScreenOn")
	}
	return nil
}

func ioWork(s *Session, i int) error {
	// Simulated I/O: descriptor churn plus logger writes.
	fd, err := s.App.Process().OpenFD(kernel.FDFile, fmt.Sprintf("/data/bench/%d", i))
	if err != nil {
		return err
	}
	s.Device.Kernel.Logger.Write(s.App.Process().PID(), "bench", "io")
	return s.App.Process().CloseFD(fd)
}

func twoDWork(s *Session, i int) error {
	// 2D: window traversals with invalidation.
	act := s.App.MainActivity()
	if w := act.Window(); w != nil {
		w.ViewRoot().Invalidate()
		if err := w.Traverse(s.App.Spec().TextureCacheBytes); err != nil {
			return err
		}
	}
	return nil
}

func threeDWork(s *Session, i int) error {
	// 3D: GL context churn through the renderer path.
	if err := twoDWork(s, i); err != nil {
		return err
	}
	if i%16 == 0 {
		return s.Call(services.InputInterface, "input", "getInputDeviceCount")
	}
	return nil
}

func jsWork(s *Session, i int) error {
	// SunSpider: string/alloc-heavy interpreter-style work.
	str := ""
	for j := 0; j < 32; j++ {
		str += fmt.Sprintf("%x", i*j)
	}
	if len(str) == 0 {
		return fmt.Errorf("impossible")
	}
	if i%128 == 0 {
		return s.Call(services.TextServicesInterface, "textservices", "isSpellCheckerEnabled")
	}
	return nil
}

// OverheadResult is one benchmark × device cell of Figure 16.
type OverheadResult struct {
	Benchmark  string
	Device     string
	FluxScore  float64 // median iterations/sec with Selective Record enabled
	AOSPScore  float64 // median iterations/sec with recording disabled
	Normalized float64 // median over adjacent trial pairs of flux / AOSP
}

// benchSpec is the synthetic benchmark app.
func benchSpec() android.AppSpec {
	return android.AppSpec{
		Package: "com.aurora.quadrant", MainActivity: "BenchActivity",
		Views:     []string{"canvas"},
		HeapBytes: 4 << 20, HeapEntropy: 0.5, TextureCacheBytes: 1 << 20,
	}
}

// overheadPairs is how many adjacent flux/AOSP trial pairs
// MeasureOverhead times.
const overheadPairs = 5

// MeasureOverhead runs bench for iters iterations with and without the
// recorder interposer on fresh devices of the given profile, returning the
// normalized score. It is wall-clock based, so it is built to survive
// host noise: every timed trial starts from a collected heap (the fresh
// device's boot garbage would otherwise put a GC cycle inside some trials
// and not others), the two sides run as adjacent pairs, alternating which
// side goes first, and Normalized is the median of the per-pair ratios
// (pairedOverhead). A load burst skews only the pairs it lands on, and
// the median discards them.
func MeasureOverhead(profile device.Profile, bench Microbench, iters int) (OverheadResult, error) {
	res := OverheadResult{Benchmark: bench.Name, Device: profile.Model}
	var err error
	res.FluxScore, res.AOSPScore, res.Normalized, err = pairedOverhead(overheadPairs, func(recording bool) (float64, error) {
		return runBench(profile, bench, iters, recording)
	})
	return res, err
}

// pairedOverhead times pairs of adjacent trials, one per side; trial
// returns one side's score (higher is better). Even pairs run flux first
// and odd pairs AOSP first, so a steady drift favours neither side. It
// returns each side's median score and the median per-pair flux/AOSP
// ratio.
func pairedOverhead(pairs int, trial func(recording bool) (float64, error)) (flux, aosp, ratio float64, err error) {
	fluxScores, aospScores := make([]float64, pairs), make([]float64, pairs)
	ratios := make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		first := i%2 == 0
		for _, recording := range []bool{first, !first} {
			score, err := trial(recording)
			if err != nil {
				return 0, 0, 0, err
			}
			if recording {
				fluxScores[i] = score
			} else {
				aospScores[i] = score
			}
		}
		if aospScores[i] > 0 {
			ratios[i] = fluxScores[i] / aospScores[i]
		}
	}
	return median(fluxScores), median(aospScores), median(ratios), nil
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func runBench(profile device.Profile, bench Microbench, iters int, recording bool) (float64, error) {
	dev, err := device.New(profile)
	if err != nil {
		return 0, err
	}
	if !recording {
		dev.Kernel.Binder().SetInterposer(nil)
	}
	app, err := dev.Runtime.Launch(benchSpec())
	if err != nil {
		return 0, err
	}
	s := NewSession(dev, app)
	// Warm up clients and caches.
	for i := 0; i < 16; i++ {
		if err := bench.Work(s, i); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := bench.Work(s, i); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(iters) / elapsed.Seconds(), nil
}
