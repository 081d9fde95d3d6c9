// Command fluxperf is Flux's wall-clock benchmark: four workloads that
// drive the library through its public calls, timed from outside, with
// every pass's virtual outputs checked against a committed digest.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload matrix-cold --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload session-record --trace 1 --trace-out /tmp/traces
//	bash bench/run.sh                       # every workload, one after another
//
// A run sets the workload up several times back to back (setup_s is the
// median), then measures passes for --seconds. With --trace 0 it reports
// the end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates
// untraced and traced passes and reports the per-layer metrics. The last
// line of standard output is the result as JSON; a human-readable report
// goes to standard error. The exit code is 1 when any check failed. See
// bench/README.md for the workloads, metrics and how to compare commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"flux/internal/obs"
)

// gomaxprocs is the default of --gomaxprocs: every host runs the
// library, the cria marshal pool and the GC on one core. At 2, run-to-run
// spreads on a shared 2-vCPU host reached 35% (see README.md).
const gomaxprocs = 1

// A run sets its workload up at least setups times and until the set-ups
// have taken setupTime together; setup_s is the median. A set-up of a
// few tens of milliseconds is then repeated often enough for its median
// to be steady.
const (
	setups    = 5
	setupTime = 2 * time.Second
)

type config struct {
	root      string        // repository root, where BENCH_*.json are read
	seed      int64         // workload seed
	seconds   time.Duration // measurement length; 0 measures one pass (one of each when traced)
	traced    bool
	setups    int           // minimum number of set-ups
	setupTime time.Duration // minimum total set-up time
	traceOut  string        // directory for one traced pass as Chrome trace JSON; "" for none
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name     = flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 20, "how long to measure, in seconds")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with --trace 1, write one traced pass per workload as Chrome trace JSON into this directory")
		procs    = flag.Int("gomaxprocs", gomaxprocs, "GOMAXPROCS for the run; changes to the marshal pool or to GC load are also checked at 2")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 || *procs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(os.Stderr, "fluxperf: unknown workload %q\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(*procs)
	cfg := config{
		root:      ".",
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		setups:    setups,
		setupTime: setupTime,
		traceOut:  *traceOut,
	}
	ok := true
	for _, def := range defs {
		res := run(def, cfg, os.Stderr)
		ok = ok && res.Correct
		var line []byte
		var err error
		if len(defs) == 1 {
			line, err = json.Marshal(res)
		} else {
			line, err = json.Marshal(struct {
				Workload string `json:"workload"`
				result
			}{def.name, res})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fluxperf:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// run sets one workload up, measures it, checks every pass's outputs,
// writes a report to log and returns the result.
func run(def workloadDef, cfg config, log io.Writer) (res result) {
	res = result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(log, "  FAIL: "+format+"\n", args...)
	}
	fmt.Fprintf(log, "fluxperf %s: seed %d, GOMAXPROCS %d, %s %s/%s\n",
		def.name, cfg.seed, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	want, committed := digests[def.name][cfg.seed]
	m := newMeter()
	defer func() { res.Attempted, res.Failed = m.attempted, m.failed }()

	// A set-up generates the inputs, builds long-lived state and runs one
	// untimed warm-up pass. The set-ups run back to back; the last yields
	// the workload that is measured. No GC is forced between them: with a
	// GC forced before each, the set-ups of a small workload ran up to
	// twice as slow for the first half second, and their median varied
	// from run to run by up to 36%.
	var setup []float64
	var setupTotal float64
	var w workload
	for i := 0; i < cfg.setups || setupTotal < cfg.setupTime.Seconds(); i++ {
		t := time.Now()
		var err error
		w, err = def.setup(cfg.seed)
		var d string
		if err == nil {
			d, err = m.runPass(w, false, i == 0 && cfg.seed == 1 && def.check != nil)
		}
		setup = append(setup, time.Since(t).Seconds())
		setupTotal += setup[i]
		if err != nil {
			fail("set-up %d: %v", i+1, err)
			return res
		}
		if !committed && i == 0 {
			want = d
		}
		if d != want {
			m.failed++
			fail("set-up %d pass digest %s, want %s", i+1, d, want)
		}
		if m.reports != nil {
			if err := def.check(cfg.root, m.reports); err != nil {
				m.failed++
				fail("aggregates: %v", err)
			}
		}
	}
	source := "committed"
	if !committed {
		source = "not committed for this seed; every pass must reproduce the first"
	}
	fmt.Fprintf(log, "  pass digest %s (%s)\n", want, source)

	// Measurement: passes until the time is up. A traced run alternates
	// untraced and traced passes, starting untraced.
	runtime.GC()
	m.layers.keeping = cfg.traced && cfg.traceOut != ""
	m.startMeasuring()
	passes := 0
	for {
		traced := cfg.traced && passes%2 == 1
		d, err := m.runPass(w, traced, false)
		passes++
		if traced && m.layers.keeping {
			m.layers.keeping = false
			if err := writeTrace(cfg.traceOut, def.name, m.layers.keep); err != nil {
				fail("trace-out: %v", err)
			}
		}
		if err != nil {
			fail("pass %d: %v", passes, err)
			break
		}
		if d != want {
			m.failed++
			fail("pass %d digest %s, want %s", passes, d, want)
		}
		if time.Since(m.start) >= cfg.seconds && (!cfg.traced || passes >= 2) {
			break
		}
	}
	elapsed := time.Since(m.start)
	fmt.Fprintf(log, "  set-up: %.3f s median of %d\n", quantile(setup, 0.5), len(setup))
	fmt.Fprintf(log, "  measured: %d passes, %d ops in %.2f s\n", passes, len(m.samples), elapsed.Seconds())

	if cfg.traced {
		res.Metrics = m.perLayer()
		m.writeLayers(log)
		if m.layers.dropped > 0 {
			fail("the tracer dropped %d spans", m.layers.dropped)
		}
	} else {
		samples := m.samplesOf(false)
		res.Metrics = endToEnd(samples, w.ops(), m.base, quantile(setup, 0.5))
		mig := latencies(samples, true)
		if len(mig) > 0 {
			fmt.Fprintf(log, "  migrate call: p50 %.1f us, p99 %.1f us over %d calls\n",
				percentile(mig, 0.5), percentile(mig, 0.99), len(mig))
		}
	}
	writeMetrics(log, res.Metrics)
	return res
}

// writeMetrics prints the metrics by name with their units.
func writeMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// writeTrace writes spans as Chrome trace-event JSON to dir/<workload>.json.
func writeTrace(dir, workload string, spans []obs.SpanData) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".json"))
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
