package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"flux/internal/apps"
	"flux/internal/chunkstore"
	"flux/internal/device"
	"flux/internal/experiments"
	"flux/internal/faults"
	"flux/internal/fleet"
	"flux/internal/migration"
	"flux/internal/obs"
	"flux/internal/pairing"
	"flux/internal/record"
)

// A workload owns the inputs its seed generated and runs passes over
// them. A pass repeats bit-identically: the same ops, the same virtual
// outputs.
type workload interface {
	ops() int            // ops per pass
	pass(m *meter) error // every op of one pass, in the workload's fixed order
}

type workloadDef struct {
	name  string
	setup func(seed int64) (workload, error)
	// check compares the trimmed reports of one pass at seed 1 with the
	// aggregates committed in the repository; nil when there are none.
	check func(root string, reps []migration.Report) error
}

var workloads = []workloadDef{
	{"matrix-cold", newMatrixCold, checkMatrix},
	{"commuter-delta", newCommuterDelta, checkCommuter},
	{"session-record", newSessionRecord, nil},
	{"fleet-scale", newFleetScale, nil},
}

// boot stands up one device pair the way the paper's evaluation does:
// two fresh devices, the app installed on home, the pair synchronized,
// and the app launched with its Table 3 workload. Each public call runs
// under its own child of parent.
func boot(parent *obs.Span, p experiments.Pair, a apps.App) (home, guest *device.Device, s *apps.Session, err error) {
	sp := parent.Child("device.new")
	home, err = device.New(p.Home("home"))
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	sp = parent.Child("device.new")
	guest, err = device.New(p.Guest("guest"))
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	sp = parent.Child("apps.install")
	err = apps.Install(home, a)
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	sp = parent.Child("pairing.pair")
	_, err = pairing.Pair(home, guest, []string{a.Spec.Package})
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	sp = parent.Child("apps.launch")
	s, err = apps.Launch(home, a)
	sp.End()
	return home, guest, s, err
}

// ---- matrix-cold --------------------------------------------------------

// matrixCold is the paper's Figure 12 matrix: each op boots a fresh pair,
// installs, pairs, launches and migrates one app with default options.
type matrixCold struct{ cells []matrixCell }

type matrixCell struct {
	idx  int // canonical position: pair-major, as experiments.RunMatrix orders cells
	pair experiments.Pair
	app  apps.App
}

func newMatrixCold(seed int64) (workload, error) {
	var cells []matrixCell
	for _, p := range experiments.Figure12Pairs() {
		for _, a := range apps.Migratable() {
			cells = append(cells, matrixCell{len(cells), p, a})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return &matrixCold{cells}, nil
}

func (w *matrixCold) ops() int { return len(w.cells) }

func (w *matrixCold) pass(m *meter) error {
	for _, c := range w.cells {
		o := m.begin()
		var rep *migration.Report
		home, guest, _, err := boot(o.span, c.pair, c.app)
		if err == nil {
			rep, err = o.migrate(home, guest, c.app.Spec.Package, migration.Options{})
		}
		if err := m.endMigrate(o, c.idx, rep, err); err != nil {
			return fmt.Errorf("%s / %s: %w", c.app.Spec.Label, c.pair.Name, err)
		}
	}
	return nil
}

// checkMatrix compares the pass's aggregates with the matrix section of
// BENCH_results.json.
func checkMatrix(root string, reps []migration.Report) error {
	cells := make([]experiments.Cell, len(reps))
	for i := range reps {
		cells[i].Report = &reps[i]
	}
	return compareSection(filepath.Join(root, "BENCH_results.json"), "matrix", experiments.MatrixMetrics(cells))
}

// ---- commuter-delta -----------------------------------------------------

// commuterDelta is the delta-migration commuter scenario: on each Figure
// 12 pair, in seed-shuffled order, fresh devices and chunk stores, then
// 2K hops of the commuter app alternating direction with a seeded dirty
// step between hops. An op is one hop.
type commuterDelta struct {
	spec  experiments.CommuterSpec
	app   apps.App
	pairs []experiments.Pair
	order []int     // seed-shuffled itinerary order over pairs
	dirty [][]int64 // [pair][hop-1]: the dirty-step seed after each hop
}

func newCommuterDelta(seed int64) (workload, error) {
	spec := experiments.DefaultCommuterSpec()
	spec.Seed = seed
	w := &commuterDelta{spec: spec, app: experiments.CommuterApp(), pairs: experiments.Figure12Pairs()}
	for _, p := range w.pairs {
		seeds := make([]int64, w.hops())
		for hop := 1; hop <= len(seeds); hop++ {
			seeds[hop-1] = faults.Derive(spec.Seed, w.app.Spec.Package, p.Name, fmt.Sprintf("hop%d", hop))
		}
		w.dirty = append(w.dirty, seeds)
	}
	w.order = rand.New(rand.NewSource(seed)).Perm(len(w.pairs))
	return w, nil
}

func (w *commuterDelta) hops() int { return 2 * w.spec.RoundTrips }
func (w *commuterDelta) ops() int  { return len(w.pairs) * w.hops() }

func (w *commuterDelta) pass(m *meter) error {
	pkg := w.app.Spec.Package
	for _, i := range w.order {
		p := w.pairs[i]
		it := obs.T().Start("bench.itinerary")
		home, guest, _, err := boot(it, p, w.app)
		it.End()
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		devs := [2]*device.Device{home, guest}
		stores := [2]*chunkstore.Store{chunkstore.New(w.spec.CacheBudget), chunkstore.New(w.spec.CacheBudget)}
		for hop := 1; hop <= w.hops(); hop++ {
			src := (hop + 1) % 2 // hop 1 leaves home
			dst := 1 - src
			o := m.begin()
			rep, err := o.migrate(devs[src], devs[dst], pkg, migration.Options{Cache: stores[dst], SourceCache: stores[src]})
			if err == nil && rep.StateConsistent() && hop < w.hops() {
				sp := o.span.Child("kernel.dirty")
				rep.App.Process().DirtySegments(w.spec.DirtyRate, w.spec.Rewrite, w.dirty[i][hop-1])
				sp.End()
			}
			if m.traced && hop > 1 && rep != nil {
				m.counts.steadyHop(rep)
			}
			if err := m.endMigrate(o, i*w.hops()+hop-1, rep, err); err != nil {
				return fmt.Errorf("%s hop %d: %w", p.Name, hop, err)
			}
		}
	}
	return nil
}

// checkCommuter compares the pass's aggregates, computed as
// experiments.Commuter computes them, with BENCH_commuter.json.
func checkCommuter(root string, reps []migration.Report) error {
	spec := experiments.DefaultCommuterSpec()
	hops := 2 * spec.RoundTrips
	mb := func(n int64) float64 { return float64(n) / (1 << 20) }
	var hop1, steady, hitRatio, notShipped float64
	runs := len(reps) / hops
	for i := 0; i < runs; i++ {
		r := experiments.CommuterRun{}
		for k := range reps[i*hops : (i+1)*hops] {
			r.Hops = append(r.Hops, experiments.CommuterHop{Hop: k + 1, Report: &reps[i*hops+k]})
		}
		hop1 += mb(r.Hop1Bytes())
		steady += mb(r.SteadyAvgBytes())
		hitRatio += r.HitRatio()
		notShipped += mb(r.NotShippedBytes())
	}
	n := float64(runs)
	return compareSection(filepath.Join(root, "BENCH_commuter.json"), "commuter", map[string]float64{
		"round_trips":            float64(spec.RoundTrips),
		"dirty_rate_pct":         100 * spec.DirtyRate,
		"hop1_avg_mb":            hop1 / n,
		"hop2plus_avg_mb":        steady / n,
		"hop2plus_over_hop1_pct": 100 * steady / hop1,
		"hit_ratio_pct":          100 * hitRatio / n,
		"not_shipped_mb":         notShipped / n,
	})
}

// compareSection requires got to equal, key for key and bit for bit, the
// metrics of the named section of a committed results file.
func compareSection(path, section string, got map[string]float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file struct {
		Sections []experiments.SectionResult `json:"sections"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, s := range file.Sections {
		if s.Name != section {
			continue
		}
		if len(s.Metrics) != len(got) {
			return fmt.Errorf("%s %s: %d metrics committed, %d computed", path, section, len(s.Metrics), len(got))
		}
		for k, want := range s.Metrics {
			if v, ok := got[k]; !ok || v != want {
				return fmt.Errorf("%s %s: %s = %v, committed %v", path, section, k, v, want)
			}
		}
		return nil
	}
	return fmt.Errorf("%s: no %q section", path, section)
}

// ---- session-record -----------------------------------------------------

// sessionRecord drives Selective Record and the fault-tolerant pipeline:
// every migratable app on every Figure 12 pair, in seed-shuffled order,
// ping-pongs between fresh devices. Each op re-runs the app's own Table 3
// workload (App.Run, the calls apps.Launch makes) runsPerOp times on the
// device holding the app, then makes one pipelined, log-verified
// migration under a seeded fault plan. The seed orders the itineraries
// and seeds the faults; every seed runs the same itineraries.
type sessionRecord struct{ itins []itinerary }

type itinerary struct {
	app        apps.App
	pair       experiments.Pair
	faultSeeds []int64 // one per hop
}

const (
	sessionHops = 4 // ping-pong hops per itinerary: two round trips
	// runsPerOp is how many times an op re-runs the app's workload. The
	// sixteen workloads make 1 to 3 Binder calls each, 2.125 on average,
	// so an op makes about 540 calls.
	runsPerOp = 256
)

// sessionFaults is the fault plan of every session-record migration.
var sessionFaults = faults.Plan{
	faults.ChunkCorrupt: {Probability: 0.15},
	faults.LinkFlap:     {Probability: 0.15, Count: 1},
	faults.RestoreFail:  {Probability: 0.15},
	faults.ReplayFail:   {Probability: 0.15},
	faults.LogTamper:    {Probability: 0.05},
}

func newSessionRecord(seed int64) (workload, error) {
	w := &sessionRecord{}
	for _, p := range experiments.Figure12Pairs() {
		for _, a := range apps.Migratable() {
			it := itinerary{app: a, pair: p}
			for h := 1; h <= sessionHops; h++ {
				it.faultSeeds = append(it.faultSeeds, faults.Derive(seed, a.Spec.Package, p.Name, fmt.Sprintf("hop%d", h)))
			}
			w.itins = append(w.itins, it)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.itins), func(i, j int) { w.itins[i], w.itins[j] = w.itins[j], w.itins[i] })
	return w, nil
}

func (w *sessionRecord) ops() int { return len(w.itins) * sessionHops }

// burst re-runs the app's Table 3 workload from s runsPerOp times under
// one binder.burst span. When lat is non-nil each run's wall time is
// appended to it.
func burst(parent *obs.Span, s *apps.Session, a apps.App, lat *[]time.Duration) error {
	sp := parent.Child("binder.burst")
	defer sp.End()
	for i := 0; i < runsPerOp; i++ {
		var t time.Time
		if lat != nil {
			t = time.Now()
		}
		if err := a.Run(s); err != nil {
			return fmt.Errorf("workload run %d: %w", i+1, err)
		}
		if lat != nil {
			*lat = append(*lat, time.Since(t))
		}
	}
	return nil
}

func (w *sessionRecord) pass(m *meter) error {
	idx := 0
	for _, it := range w.itins {
		pkg := it.app.Spec.Package
		span := obs.T().Start("bench.itinerary")
		home, guest, sess, err := boot(span, it.pair, it.app)
		span.End()
		if err != nil {
			return fmt.Errorf("%s / %s: %w", it.app.Spec.Label, it.pair.Name, err)
		}
		devs := [2]*device.Device{home, guest}
		at := 0               // the device holding the app
		var arrived [2]uint64 // each device's Recorded count before the app last arrived
		for h, faultSeed := range it.faultSeeds {
			src, dst := devs[at], devs[1-at]
			o := m.begin()
			var before [2]record.Stats
			var lat *[]time.Duration
			if m.traced {
				before = [2]record.Stats{src.Recorder.Stats(), dst.Recorder.Stats()}
				lat = &m.runs
			}
			var rep *migration.Report
			err := burst(o.span, sess, it.app, lat)
			if err == nil {
				if m.traced {
					m.counts.logEntries += uint64(len(src.Recorder.Log().AppEntries(pkg)))
					m.counts.sinceArrival += src.Recorder.Stats().Recorded - arrived[at]
				}
				rep, err = o.migrate(src, dst, pkg, migration.Options{
					Pipelined: true,
					VerifyLog: true,
					Faults:    faults.New(faultSeed, sessionFaults),
				})
			}
			if m.traced {
				m.counts.record(before, [2]record.Stats{src.Recorder.Stats(), dst.Recorder.Stats()})
			}
			if err == nil {
				arrived[1-at] = before[1].Recorded
				at = 1 - at
				sess = apps.NewSession(dst, rep.App)
			}
			if err := m.endMigrate(o, idx, rep, err); err != nil {
				return fmt.Errorf("%s / %s hop %d: %w", it.app.Spec.Label, it.pair.Name, h+1, err)
			}
			idx++
		}
	}
	return nil
}

// ---- fleet-scale --------------------------------------------------------

// scaleSpec is the fleet-scale input; see the file's header.
//
//go:embed scale-10k.yaml
var scaleSpec []byte

// fleetScale runs the fleet engine alone: each op resets, runs, reports
// and renders the 10k-device scale spec with the workload seed.
type fleetScale struct{ sim *fleet.Sim }

func newFleetScale(seed int64) (workload, error) {
	spec, err := fleet.ParseSpec(scaleSpec)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	sim, err := fleet.NewSim(spec, 1)
	if err != nil {
		return nil, err
	}
	return &fleetScale{sim}, nil
}

func (w *fleetScale) ops() int { return 1 }

func (w *fleetScale) pass(m *meter) error {
	o := m.begin()
	sp := o.span.Child("fleet.reset")
	w.sim.Reset()
	sp.End()
	sp = o.span.Child("fleet.run")
	w.sim.Run()
	sp.End()
	sp = o.span.Child("fleet.report")
	rep := w.sim.Report()
	sp.End()
	sp = o.span.Child("fleet.render")
	out, err := rep.Render()
	sp.End()
	if m.traced {
		m.counts.fleetEvents += w.sim.Events()
	}
	return m.endRender(o, 0, out, err)
}
