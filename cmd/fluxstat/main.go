// Command fluxstat runs one migration with telemetry enabled and prints a
// flamegraph-style text breakdown of the live span tree — the paper's
// Figure 13 stage decomposition, reproduced from spans rather than from
// the Report's Timings array — then cross-checks the two against each
// other: every stage span's virtual duration must agree with its Timings
// entry within 1% (by construction they agree exactly; fluxstat fails
// loudly if the instrumentation ever drifts).
//
// Usage:
//
//	fluxstat -app com.king.candycrushsaga -from nexus4 -to nexus7-2013
//	fluxstat -app com.whatsapp -trace whatsapp.json
//	fluxstat -app com.whatsapp -pipeline
//	fluxstat -app com.whatsapp -cache
//
// -pipeline runs the migration as a streamed pipeline
// (migration.Options.Pipelined) and renders the per-chunk
// checkpoint/compress/transfer/restore lanes as a text gantt, built from
// the "pipeline.chunk" instant spans the migration emits.
//
// -cache enables delta migration (migration.Options.Cache) and runs a
// round trip — home → guest, then back — printing a per-hop cache
// column: digest hits, misses, rolling-delta hits, and the wire bytes
// the cache kept off the air. The flamegraph and stage cross-check
// cover the first hop.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"flux"
	"flux/internal/device"
	"flux/internal/migration"
	"flux/internal/obs"
)

func main() {
	var (
		appPkg    = flag.String("app", "com.king.candycrushsaga", "package to migrate")
		from      = flag.String("from", "nexus4", "home device model")
		to        = flag.String("to", "nexus7-2013", "guest device model")
		tracePath = flag.String("trace", "", "also write the span tree as Chrome trace-event JSON")
		pipelined = flag.Bool("pipeline", false, "stream the migration and render per-chunk pipeline lanes")
		cache     = flag.Bool("cache", false, "enable delta migration and print the per-hop cache column over a round trip")
	)
	flag.Parse()
	obs.SetEnabled(true)
	if err := run(*appPkg, *from, *to, *tracePath, *pipelined, *cache); err != nil {
		fmt.Fprintln(os.Stderr, "fluxstat:", err)
		os.Exit(1)
	}
}

func run(appPkg, from, to, tracePath string, pipelined, cache bool) error {
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
		return fmt.Errorf("app %s is not in the evaluation catalog", appPkg)
	}
	home, err := flux.NewDevice(homeProfile)
	if err != nil {
		return err
	}
	guest, err := flux.NewDevice(guestProfile)
	if err != nil {
		return err
	}
	if err := flux.Install(home, *app); err != nil {
		return err
	}
	if _, err := flux.PairDevices(home, guest, []string{appPkg}); err != nil {
		return err
	}
	if _, err := flux.LaunchApp(home, *app); err != nil {
		return err
	}
	opts := flux.MigrateOptions{Pipelined: pipelined}
	var homeStore, guestStore *flux.ChunkStore
	if cache {
		homeStore, guestStore = flux.NewChunkStore(0), flux.NewChunkStore(0)
		opts.Cache, opts.SourceCache = guestStore, homeStore
	}
	rep, err := flux.Migrate(home, guest, appPkg, opts)
	if err != nil {
		return err
	}

	spans := obs.SortTree(obs.T().Snapshot())
	fmt.Printf("%s: %s → %s\n\n", app.Spec.Label, home.Name(), guest.Name())
	printFlame(spans)
	fmt.Println()
	if pipelined {
		printChunkLanes(spans)
		fmt.Printf("pipeline: %d chunks, saved %v vs sequential\n\n",
			rep.PipelineChunks, rep.PipelineSavings.Round(time.Millisecond))
	}
	if err := printStageCheck(spans, rep); err != nil {
		return err
	}
	if cache {
		// The return hop hits the stores the first hop populated.
		back, err := flux.Migrate(guest, home, appPkg, flux.MigrateOptions{
			Pipelined: pipelined, Cache: homeStore, SourceCache: guestStore,
		})
		if err != nil {
			return err
		}
		fmt.Println()
		printCacheColumn([]hopCache{
			{"hop 1 (fwd)", rep},
			{"hop 2 (back)", back},
		})
	}
	if tracePath != "" {
		if err := obs.T().WriteChromeTraceFile(tracePath); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", tracePath)
	}
	return nil
}

// printFlame renders the span forest as an indented tree with virtual
// durations and a proportional bar, flamegraph-style.
func printFlame(spans []obs.SpanData) {
	depth := obs.Depth(spans)
	// Scale bars against the migrate root (or the longest root).
	var total time.Duration
	for _, s := range spans {
		if s.Name == migration.SpanMigrate || (s.Parent == 0 && s.Virt() > total) {
			if s.Virt() > total {
				total = s.Virt()
			}
		}
	}
	if total <= 0 {
		total = time.Nanosecond
	}
	const barWidth = 32
	fmt.Printf("%-44s %12s  %s\n", "SPAN", "VIRTUAL", "SHARE")
	for _, s := range spans {
		if s.Name == migration.SpanPipelineChunk || s.Name == migration.SpanCacheLookup {
			// Dozens of instant per-chunk spans per run; chunk lanes get
			// their own gantt rendering and cache lookups their own table
			// instead of flamegraph rows.
			continue
		}
		ind := strings.Repeat("  ", depth[s.ID])
		frac := float64(s.Virt()) / float64(total)
		if frac < 0 {
			frac = 0
		}
		n := int(frac*barWidth + 0.5)
		if n > barWidth {
			n = barWidth
		}
		bar := strings.Repeat("█", n)
		if n == 0 && s.Virt() > 0 {
			bar = "▏"
		}
		fmt.Printf("%-44s %12s  %-*s %5.1f%%\n",
			ind+s.Name, fmtDur(s.Virt()), barWidth, bar, frac*100)
	}
}

// chunkLaneRow is one "pipeline.chunk" span decoded back into its
// schedule offsets (microseconds from checkpoint-stage start).
type chunkLaneRow struct {
	idx          int64
	kind         string
	raw, wire    int64
	ckptS, ckptE int64
	compS, compE int64
	xferS, xferE int64
	rstrS, rstrE int64
	workingSet   bool
}

func attrInt(s obs.SpanData, key string) int64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			if v, ok := a.Value().(int64); ok {
				return v
			}
		}
	}
	return 0
}

func attrString(s obs.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			if v, ok := a.Value().(string); ok {
				return v
			}
		}
	}
	return ""
}

func attrBool(s obs.SpanData, key string) bool {
	for _, a := range s.Attrs {
		if a.Key == key {
			if v, ok := a.Value().(bool); ok {
				return v
			}
		}
	}
	return false
}

// printChunkLanes renders the streamed migration's per-chunk schedule as a
// text gantt: one row per wire chunk, with the checkpoint (c), compress
// (z), transfer (x), and restore (r) intervals drawn on a shared timeline
// that starts at the checkpoint stage and ends when the last chunk is
// restored. The '|' column marks the working-set boundary where adaptive
// replay may begin.
func printChunkLanes(spans []obs.SpanData) {
	var rows []chunkLaneRow
	for _, s := range spans {
		if s.Name != migration.SpanPipelineChunk {
			continue
		}
		rows = append(rows, chunkLaneRow{
			idx:        attrInt(s, "chunk"),
			kind:       attrString(s, "kind"),
			raw:        attrInt(s, "raw_bytes"),
			wire:       attrInt(s, "wire_bytes"),
			ckptS:      attrInt(s, "ckpt_start_us"),
			ckptE:      attrInt(s, "ckpt_end_us"),
			compS:      attrInt(s, "comp_start_us"),
			compE:      attrInt(s, "comp_end_us"),
			xferS:      attrInt(s, "xfer_start_us"),
			xferE:      attrInt(s, "xfer_end_us"),
			rstrS:      attrInt(s, "rstr_start_us"),
			rstrE:      attrInt(s, "rstr_end_us"),
			workingSet: attrBool(s, "working_set"),
		})
	}
	if len(rows) == 0 {
		fmt.Println("no pipeline.chunk spans recorded")
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].idx < rows[j].idx })
	var end int64
	for _, r := range rows {
		if r.rstrE > end {
			end = r.rstrE
		}
	}
	if end <= 0 {
		end = 1
	}
	const width = 72
	scale := func(us int64) int {
		p := int(us * int64(width) / end)
		if p >= width {
			p = width - 1
		}
		if p < 0 {
			p = 0
		}
		return p
	}
	paint := func(row []byte, from, to int64, ch byte) {
		a, b := scale(from), scale(to)
		if to > from && b == a {
			b = a + 1 // sub-cell intervals still get one mark
		}
		for i := a; i < b && i < width; i++ {
			row[i] = ch
		}
	}
	fmt.Printf("pipeline lanes (c=checkpoint z=compress x=transfer r=restore, %v total):\n", time.Duration(end)*time.Microsecond)
	fmt.Printf("%5s %-10s %9s  %s\n", "CHUNK", "KIND", "WIRE", "TIMELINE")
	lastWS := -1
	for i, r := range rows {
		if r.workingSet {
			lastWS = i
		}
	}
	for i, r := range rows {
		row := make([]byte, width)
		for j := range row {
			row[j] = '.'
		}
		paint(row, r.ckptS, r.ckptE, 'c')
		paint(row, r.compS, r.compE, 'z')
		paint(row, r.xferS, r.xferE, 'x')
		paint(row, r.rstrS, r.rstrE, 'r')
		ws := " "
		if i == lastWS {
			ws = "|"
		}
		fmt.Printf("%5d %-10s %9d %s%s\n", r.idx, r.kind, r.wire, ws, string(row))
	}
}

// hopCache pairs a hop label with its report for the cache column.
type hopCache struct {
	label string
	rep   *migration.Report
}

// printCacheColumn renders the delta-migration cache accounting per hop:
// full digest hits, misses, rolling-delta hits, poisoned entries, and
// the wire bytes the cache kept off the air.
func printCacheColumn(hops []hopCache) {
	fmt.Printf("%-14s %6s %8s %8s %9s %13s %13s\n",
		"CACHE", "HITS", "MISSES", "ROLLING", "POISONED", "NOT SHIPPED", "TRANSFERRED")
	for _, h := range hops {
		r := h.rep
		fmt.Printf("%-14s %6d %8d %8d %9d %11.2fMB %11.2fMB\n",
			h.label, r.CacheHits, r.CacheMisses, r.CacheRollingHits, r.CachePoisoned,
			float64(r.CacheBytesNotShipped)/(1<<20), float64(r.TransferredBytes)/(1<<20))
	}
}

func fmtDur(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return d.Round(time.Millisecond).String()
}

// printStageCheck prints the Figure 13 stage table from the span tree and
// verifies it against the Report's Timings array within 1%.
func printStageCheck(spans []obs.SpanData, rep *migration.Report) error {
	byStage := make(map[migration.Stage]time.Duration)
	for _, s := range spans {
		if st, ok := migration.StageBySpanName(s.Name); ok {
			byStage[st] += s.Virt()
		}
	}
	fmt.Printf("%-15s %12s %12s %8s\n", "STAGE", "SPANS", "TIMINGS", "DELTA")
	var firstErr error
	for _, st := range migration.Stages() {
		fromSpans := byStage[st]
		fromTimings := rep.Timings[st]
		delta := fromSpans - fromTimings
		pct := 0.0
		if fromTimings > 0 {
			pct = float64(delta) / float64(fromTimings) * 100
		}
		mark := "✓"
		if pct > 1 || pct < -1 {
			mark = "✗"
			if firstErr == nil {
				firstErr = fmt.Errorf("stage %s: span tree says %v, Timings says %v (%.2f%% apart)",
					st, fromSpans, fromTimings, pct)
			}
		}
		fmt.Printf("%-15s %12s %12s %7.2f%% %s\n",
			st.String(), fmtDur(fromSpans), fmtDur(fromTimings), pct, mark)
	}
	fmt.Printf("%-15s %12s %12s\n", "total", fmtDur(sumStages(byStage)), fmtDur(rep.Timings.Total()))
	fmt.Printf("user-perceived %v, excluding transfer %v\n",
		rep.Timings.UserPerceived().Round(time.Millisecond),
		rep.Timings.ExcludingTransfer().Round(time.Millisecond))
	if firstErr != nil {
		return fmt.Errorf("span tree and Timings disagree: %w", firstErr)
	}
	fmt.Println("span tree agrees with Report.Timings within 1% ✓")
	return nil
}

func sumStages(m map[migration.Stage]time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range m {
		sum += d
	}
	return sum
}
