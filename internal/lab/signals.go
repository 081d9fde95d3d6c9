package lab

// The strong-signal validation battery (Hermes RFC-089 style): a lab run
// is not one exit code but a catalog of named invariants, each reported
// individually with evidence. The checks reuse the invariants PRs 1–6
// established in package tests — span/timings equality, pipeline byte
// identity, retransmit bounds, cache steady state, width-invariant
// determinism — and re-verify them on every experiment run, so a
// regression shows up as a named red row in the report, not as a distant
// test failure.

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"flux/internal/experiments"
	"flux/internal/migration"
)

// Signal is one named invariant verdict.
type Signal struct {
	// Name is the stable signal identifier, family-dotted
	// ("pipeline.byte_identical").
	Name string `json:"name"`
	Pass bool   `json:"pass"`
	// Evidence states what was measured — enough to act on a failure
	// without re-running.
	Evidence string `json:"evidence"`
}

// SignalCatalog lists every signal name the battery emits, in emission
// order, with a one-line description — the `fluxlab signals` output.
func SignalCatalog() []struct{ Name, Desc string } {
	return []struct{ Name, Desc string }{
		{"timings.stage_nonnegative", "no migration reports a negative stage duration"},
		{"timings.user_decomposition", "UserPerceived == XFER+RSTR+REINT and ExclTransfer == RSTR+REINT per cell"},
		{"timings.transfer_dominates", "transfer stage averages over half of total time (paper §4)"},
		{"timings.pair_ordering", "the slowest device pair never beats the fastest for the same app"},
		{"timings.span_equality", "stage spans' virtual durations equal Report.Timings exactly (PR 2)"},
		{"timings.width_invariance_p99", "per-stage p50/p99 identical between width-1 and width-N matrices"},
		{"bytes.compression_effective", "compressed image never exceeds the raw image"},
		{"bytes.wire_composition", "TransferredBytes == data delta + APK delta + compressed image (clean run)"},
		{"bytes.paper_wire_bound", "no migration ships more than the paper's 14 MB ceiling"},
		{"bytes.apk_delta_zero", "freshly paired devices never re-ship the APK"},
		{"bytes.record_log_present", "every migrated app carries a non-empty pruned record log"},
		{"determinism.width_invariance", "cell statistics byte-identical between width-1 and width-N"},
		{"determinism.repeat_stability", "re-running the same matrix reproduces identical statistics"},
		{"determinism.fault_seed_stability", "the fault matrix is byte-stable for a fixed injector seed"},
		{"determinism.report_canonical", "marshaling the lab report twice yields identical bytes"},
		{"pipeline.byte_identical", "the streamed pipeline changes no byte counter in any cell (PR 3)"},
		{"pipeline.savings_nonnegative", "the pipeline never slows a migration down"},
		{"pipeline.savings_consistent", "PipelineSavings equals the sequential-minus-pipelined difference"},
		{"pipeline.chunks_positive", "every pipelined migration streams at least one chunk"},
		{"pipeline.faster_on_average", "the pipeline wins on average user-perceived time"},
		{"postcopy.bytes_conserved", "post-copy defers bytes but never changes the total shipped"},
		{"postcopy.user_perceived_wins", "post-copy never increases user-perceived time"},
		{"faults.no_app_lost", "every faulted cell completes or rolls back cleanly (PR 4)"},
		{"faults.retransmit_bound", "retransmitted bytes ≤ retries × chunk size (resumability)"},
		{"faults.recovery_rate", "completion rate at the headline fault rate meets the criteria floor"},
		{"faults.zero_rate_clean", "a zero-rate injector leaves the matrix byte-identical to no injector"},
		{"faults.overhead_nonnegative", "fault recovery never makes a migration faster than clean"},
		{"cache.steady_state_bound", "warm commuter hops average ≤ 25% of hop 1's wire bytes (PR 6)"},
		{"cache.hit_monotone", "warm-hop hit ratio never degrades materially below the first warm hop"},
		{"cache.cold_hop_all_miss", "hop 1 negotiates all misses and saves zero bytes"},
		{"cache.warm_hops_save", "every warm hop keeps bytes off the wire"},
		{"cache.no_poison_clean", "no cache entry fails digest verification without fault injection"},
		{"cache.pipelined_agreement", "sequential and pipelined hops agree on cache verdicts; bytes within the record-log drift bound"},
		{"state.consistency", "guest service state equals home state at checkpoint for every cell"},
		{"state.outcome_completed", "every clean migration terminates in the completed outcome"},
		{"calibration.stage_mape.prep", "Figure 13 preparation-share MAPE within budget"},
		{"calibration.stage_mape.ckpt", "Figure 13 checkpoint-share MAPE within budget"},
		{"calibration.stage_mape.xfer", "Figure 13 transfer-share MAPE within budget"},
		{"calibration.stage_mape.rstr", "Figure 13 restore-share MAPE within budget"},
		{"calibration.stage_mape.reint", "Figure 13 reintegration-share MAPE within budget"},
		{"calibration.bytes_mape", "Figure 15 transfer-byte MAPE within budget"},
		{"calibration.pearson_stages", "stage-share correlation with the paper meets the floor"},
		{"calibration.pearson_bytes", "transfer-byte correlation with the paper meets the floor"},
		{"calibration.headline_total", "§4 headline aggregates within the loose budget"},
		{"counterfactual.bytes_invariant", "policy choice never changes wire bytes"},
		{"counterfactual.regret_floor", "per-cell regret is exact: nonnegative, zero for the best mode"},
		{"counterfactual.deferral_wins", "a deferral policy beats sequential in nearly every cell"},
	}
}

func sig(name string, pass bool, format string, args ...any) Signal {
	return Signal{Name: name, Pass: pass, Evidence: fmt.Sprintf(format, args...)}
}

// RunBattery evaluates every signal against the run's data. rep is the
// partially assembled report (cells, calibration, counterfactual set;
// signals not yet) — the canonical-marshal signal serializes it.
func RunBattery(d *runData, cal *Calibration, cf *CounterfactualReport, rep *Report) []Signal {
	var out []Signal
	out = append(out, timingSignals(d)...)
	out = append(out, byteSignals(d)...)
	out = append(out, determinismSignals(d, rep)...)
	out = append(out, pipelineSignals(d)...)
	out = append(out, postcopySignals(d)...)
	out = append(out, faultSignals(d)...)
	out = append(out, cacheSignals(d)...)
	out = append(out, stateSignals(d)...)
	out = append(out, calibrationSignals(cal)...)
	out = append(out, counterfactualSignals(d, cf)...)
	return out
}

func timingSignals(d *runData) []Signal {
	var out []Signal

	bad := 0
	for _, c := range d.baseline {
		for s := 0; s < 5; s++ {
			if c.Report.Timings[migration.Stage(s)] < 0 {
				bad++
			}
		}
	}
	out = append(out, sig("timings.stage_nonnegative", bad == 0,
		"%d negative stage durations across %d cells", bad, len(d.baseline)))

	bad = 0
	for _, c := range d.baseline {
		t := c.Report.Timings
		if t.UserPerceived() != t[migration.StageTransfer]+t[migration.StageRestore]+t[migration.StageReintegration] ||
			t.ExcludingTransfer() != t[migration.StageRestore]+t[migration.StageReintegration] {
			bad++
		}
	}
	out = append(out, sig("timings.user_decomposition", bad == 0,
		"%d cells with inconsistent user-perceived decomposition", bad))

	var share float64
	for _, c := range d.baseline {
		share += float64(c.Report.Timings[migration.StageTransfer]) / float64(c.Report.Timings.Total())
	}
	share = 100 * share / float64(len(d.baseline))
	out = append(out, sig("timings.transfer_dominates", share > PaperTransferSharePct,
		"avg transfer share %.1f%% (paper floor %.0f%%)", share, PaperTransferSharePct))

	// Fastest and slowest pairs by the Figure 12 ordering.
	const fastPair = "Nexus 7 (2013) to Nexus 7 (2013)"
	const slowPair = "Nexus 7 to Nexus 4"
	fast := make(map[string]time.Duration)
	slow := make(map[string]time.Duration)
	for _, c := range d.baseline {
		switch c.Pair.Name {
		case fastPair:
			fast[c.App.Spec.Label] = c.Report.Timings.Total()
		case slowPair:
			slow[c.App.Spec.Label] = c.Report.Timings.Total()
		}
	}
	bad = 0
	//fluxvet:allow maprange — order-independent count over the pair maps
	for app, f := range fast {
		if s, ok := slow[app]; ok && s < f {
			bad++
		}
	}
	out = append(out, sig("timings.pair_ordering", bad == 0,
		"%d apps where %q beat %q", bad, slowPair, fastPair))

	// Span equality on the traced migration: each stage span's virtual
	// duration must equal its Timings entry exactly.
	matched, mismatched := 0, 0
	for _, sp := range d.tracedSpans {
		stage, ok := migration.StageBySpanName(sp.Name)
		if !ok {
			continue
		}
		if sp.Virt() == d.traced.Timings[stage] {
			matched++
		} else {
			mismatched++
		}
	}
	out = append(out, sig("timings.span_equality", mismatched == 0 && matched == 5,
		"%d/5 stage spans equal Timings exactly, %d mismatched", matched, mismatched))

	// p50/p99 equality across widths.
	params := map[string]string{"probe": "width"}
	a := statsFromCells(params, d.baseline)
	b := statsFromCells(params, d.width1)
	equal := a.StageP50S == b.StageP50S && a.StageP99S == b.StageP99S &&
		a.TotalP50S == b.TotalP50S && a.TotalP99S == b.TotalP99S
	out = append(out, sig("timings.width_invariance_p99", equal,
		"stage p50/p99 run-width vs width-1: equal=%v", equal))

	return out
}

func byteSignals(d *runData) []Signal {
	var out []Signal

	bad := 0
	for _, c := range d.baseline {
		if c.Report.CompressedImageBytes > c.Report.ImageBytes {
			bad++
		}
	}
	out = append(out, sig("bytes.compression_effective", bad == 0,
		"%d cells where compression grew the image", bad))

	bad = 0
	for _, c := range d.baseline {
		r := c.Report
		if r.TransferredBytes != r.DataDeltaBytes+r.APKDeltaBytes+r.CompressedImageBytes {
			bad++
		}
	}
	out = append(out, sig("bytes.wire_composition", bad == 0,
		"%d cells where wire bytes ≠ data delta + APK delta + compressed image", bad))

	var maxWire int64
	for _, c := range d.baseline {
		if c.Report.TransferredBytes > maxWire {
			maxWire = c.Report.TransferredBytes
		}
	}
	maxMB := float64(maxWire) / (1 << 20)
	out = append(out, sig("bytes.paper_wire_bound", maxMB <= PaperMaxTransferMB,
		"max wire %.2f MB (paper ceiling %.0f MB)", maxMB, PaperMaxTransferMB))

	bad = 0
	for _, c := range d.baseline {
		if c.Report.APKDeltaBytes != 0 {
			bad++
		}
	}
	out = append(out, sig("bytes.apk_delta_zero", bad == 0,
		"%d cells re-shipped an APK on a fresh pairing", bad))

	bad = 0
	for _, c := range d.baseline {
		if c.Report.RecordLogBytes <= 0 {
			bad++
		}
	}
	out = append(out, sig("bytes.record_log_present", bad == 0,
		"%d cells migrated with an empty record log", bad))

	return out
}

func determinismSignals(d *runData, rep *Report) []Signal {
	var out []Signal

	probe := map[string]string{"probe": "determinism"}
	canon := func(cells []experiments.Cell) string {
		data, err := json.Marshal(statsFromCells(probe, cells))
		if err != nil {
			return "marshal-error: " + err.Error()
		}
		return string(data)
	}
	a, b := canon(d.baseline), canon(d.width1)
	out = append(out, sig("determinism.width_invariance", a == b,
		"run-width vs width-1 canonical stats equal=%v", a == b))

	c := canon(d.repeat)
	out = append(out, sig("determinism.repeat_stability", a == c,
		"repeat-run canonical stats equal=%v", a == c))

	stable := len(d.faulted) == len(d.faultedRepeat)
	if stable {
		for i := range d.faulted {
			x, y := d.faulted[i], d.faultedRepeat[i]
			if x.RolledBack() != y.RolledBack() || x.Seed != y.Seed {
				stable = false
				break
			}
			if !x.RolledBack() &&
				(x.Report.Timings.Total() != y.Report.Timings.Total() ||
					x.Report.TransferredBytes != y.Report.TransferredBytes ||
					x.Report.Retries != y.Report.Retries) {
				stable = false
				break
			}
		}
	}
	out = append(out, sig("determinism.fault_seed_stability", stable,
		"two fault matrices at the same seed agree=%v over %d cells", stable, len(d.faulted)))

	m1, err1 := json.Marshal(rep)
	m2, err2 := json.Marshal(rep)
	canonical := err1 == nil && err2 == nil && string(m1) == string(m2)
	out = append(out, sig("determinism.report_canonical", canonical,
		"double-marshal identical=%v (%d bytes)", canonical, len(m1)))

	return out
}

func pipelineSignals(d *runData) []Signal {
	var out []Signal

	bad := 0
	for i := range d.baseline {
		s, p := d.baseline[i].Report, d.pipelined[i].Report
		if s.TransferredBytes != p.TransferredBytes ||
			s.ImageBytes != p.ImageBytes ||
			s.CompressedImageBytes != p.CompressedImageBytes {
			bad++
		}
	}
	out = append(out, sig("pipeline.byte_identical", bad == 0,
		"%d cells where the pipeline changed byte accounting", bad))

	bad = 0
	for _, c := range d.pipelined {
		if c.Report.PipelineSavings < 0 {
			bad++
		}
	}
	out = append(out, sig("pipeline.savings_nonnegative", bad == 0,
		"%d cells with negative pipeline savings", bad))

	bad = 0
	var maxDrift time.Duration
	for i := range d.baseline {
		seqUser := d.baseline[i].Report.Timings.UserPerceived()
		p := d.pipelined[i].Report
		drift := seqUser - (p.Timings.UserPerceived() + p.PipelineSavings)
		if drift < 0 {
			drift = -drift
		}
		if drift > maxDrift {
			maxDrift = drift
		}
		if drift != 0 {
			bad++
		}
	}
	out = append(out, sig("pipeline.savings_consistent", bad == 0,
		"%d cells where savings ≠ sequential−pipelined (max drift %v)", bad, maxDrift))

	bad = 0
	for _, c := range d.pipelined {
		if c.Report.PipelineChunks < 1 {
			bad++
		}
	}
	out = append(out, sig("pipeline.chunks_positive", bad == 0,
		"%d pipelined cells streamed zero chunks", bad))

	var seqAvg, pipAvg float64
	for i := range d.baseline {
		seqAvg += d.baseline[i].Report.Timings.UserPerceived().Seconds()
		pipAvg += d.pipelined[i].Report.Timings.UserPerceived().Seconds()
	}
	n := float64(len(d.baseline))
	seqAvg, pipAvg = seqAvg/n, pipAvg/n
	out = append(out, sig("pipeline.faster_on_average", pipAvg < seqAvg,
		"avg user-perceived: sequential %.2fs, pipelined %.2fs", seqAvg, pipAvg))

	return out
}

func postcopySignals(d *runData) []Signal {
	var out []Signal

	badBytes, noResidual := 0, 0
	for i := range d.baseline {
		s, p := d.baseline[i].Report, d.postcopy[i].Report
		if s.TransferredBytes != p.TransferredBytes {
			badBytes++
		}
		if p.PostCopyResidualBytes <= 0 {
			noResidual++
		}
	}
	out = append(out, sig("postcopy.bytes_conserved", badBytes == 0 && noResidual == 0,
		"%d cells changed total bytes, %d deferred nothing", badBytes, noResidual))

	bad := 0
	for i := range d.baseline {
		if d.postcopy[i].Report.Timings.UserPerceived() > d.baseline[i].Report.Timings.UserPerceived() {
			bad++
		}
	}
	out = append(out, sig("postcopy.user_perceived_wins", bad == 0,
		"%d cells where post-copy increased user-perceived time", bad))

	return out
}

func faultSignals(d *runData) []Signal {
	var out []Signal

	// RunFaultMatrixWorkers already fails hard on anything outside
	// {completed, rolled back}; reaching here with the cells in hand IS
	// the evidence, but re-verify instead of trusting the call path.
	lost := 0
	for _, c := range d.faulted {
		if c.Err != nil && !c.RolledBack() {
			lost++
		}
	}
	out = append(out, sig("faults.no_app_lost", lost == 0,
		"%d cells lost an app out of %d", lost, len(d.faulted)))

	bad := 0
	for _, c := range d.faulted {
		if c.RolledBack() {
			continue
		}
		r := c.Report
		if r.RetransmitBytes > int64(r.Retries)*migration.DefaultPipelineChunkBytes {
			bad++
		}
	}
	out = append(out, sig("faults.retransmit_bound", bad == 0,
		"%d cells reshipped more than one chunk per retry", bad))

	recovered := 0
	for _, c := range d.faulted {
		if !c.RolledBack() {
			recovered++
		}
	}
	rate := 100 * float64(recovered) / float64(len(d.faulted))
	floor := d.spec.Criteria.MinRecoveryPct
	out = append(out, sig("faults.recovery_rate", rate >= floor,
		"%d/%d completed (%.1f%%, floor %.0f%%) at rate %.2f", recovered, len(d.faulted), rate, floor, HeadlineFaultRate))

	clean := true
	detail := "all cells identical to baseline"
	if len(d.faultedZero) != len(d.baseline) {
		clean, detail = false, "cell count mismatch"
	} else {
		for i := range d.faultedZero {
			c := d.faultedZero[i]
			if c.RolledBack() || c.Err != nil || c.Report.Retries != 0 ||
				c.Report.Timings != d.baseline[i].Report.Timings ||
				c.Report.TransferredBytes != d.baseline[i].Report.TransferredBytes {
				clean = false
				detail = fmt.Sprintf("first divergence at cell %d (%s / %s)", i, c.App.Spec.Label, c.Pair.Name)
				break
			}
		}
	}
	out = append(out, sig("faults.zero_rate_clean", clean, "%s", detail))

	bad = 0
	for i := range d.faulted {
		c := d.faulted[i]
		if c.RolledBack() || c.Report.Retries == 0 {
			continue
		}
		if c.Report.Timings.Total() < d.baseline[i].Report.Timings.Total() {
			bad++
		}
	}
	out = append(out, sig("faults.overhead_nonnegative", bad == 0,
		"%d faulted cells finished faster than their clean run", bad))

	return out
}

func cacheSignals(d *runData) []Signal {
	var out []Signal

	worstRatio, pass := 0.0, true
	for _, r := range d.commuter {
		h1, steady := r.Hop1Bytes(), r.SteadyAvgBytes()
		ratio := float64(steady) / float64(h1)
		if ratio > worstRatio {
			worstRatio = ratio
		}
		if steady > h1/4 {
			pass = false
		}
	}
	out = append(out, sig("cache.steady_state_bound", pass,
		"worst warm/cold wire ratio %.1f%% (bound 25%%)", 100*worstRatio))

	const slackPP = 0.05 // warm ratio may dip this far below the first warm hop
	monotone := true
	var worstDip float64
	for _, r := range d.commuter {
		var first float64
		for i, h := range r.Hops {
			if i == 0 {
				continue
			}
			rep := h.Report
			total := rep.CacheHits + rep.CacheRollingHits + rep.CacheMisses
			if total == 0 {
				monotone = false
				continue
			}
			ratio := float64(rep.CacheHits+rep.CacheRollingHits) / float64(total)
			if i == 1 {
				first = ratio
				continue
			}
			if dip := first - ratio; dip > worstDip {
				worstDip = dip
			}
			if ratio < first-slackPP {
				monotone = false
			}
		}
	}
	out = append(out, sig("cache.hit_monotone", monotone,
		"worst warm-hop hit-ratio dip %.1f pp (slack %.0f pp)", 100*worstDip, 100*slackPP))

	bad := 0
	for _, r := range d.commuter {
		cold := r.Hops[0].Report
		if cold.CacheHits != 0 || cold.CacheRollingHits != 0 || cold.CacheBytesNotShipped != 0 {
			bad++
		}
	}
	out = append(out, sig("cache.cold_hop_all_miss", bad == 0,
		"%d itineraries where hop 1 hit a cold cache", bad))

	bad = 0
	for _, r := range d.commuter {
		for _, h := range r.Hops[1:] {
			if h.Report.CacheBytesNotShipped <= 0 {
				bad++
			}
		}
	}
	out = append(out, sig("cache.warm_hops_save", bad == 0,
		"%d warm hops saved zero bytes", bad))

	poisoned := 0
	for _, r := range d.commuter {
		for _, h := range r.Hops {
			poisoned += h.Report.CachePoisoned
		}
	}
	out = append(out, sig("cache.no_poison_clean", poisoned == 0,
		"%d poisoned cache entries without fault injection", poisoned))

	// Verdicts must agree exactly; warm-hop bytes may drift a few bytes
	// because the two modes' hop-1 timelines shift record-log timestamps
	// (the bound TestCommuterPipelined codifies). Hop 1 is byte-exact.
	const warmDriftBytes = 64
	agree := true
	detail := "all hops agree (verdicts exact, warm-hop byte drift ≤ 64 B)"
	for i, r := range d.commuter {
		p := d.commuterPip[i]
		if len(r.Hops) != len(p.Hops) {
			agree, detail = false, "hop count mismatch"
			break
		}
		for j := range r.Hops {
			a, b := r.Hops[j].Report, p.Hops[j].Report
			drift := a.TransferredBytes - b.TransferredBytes
			if drift < 0 {
				drift = -drift
			}
			var tol int64
			if j > 0 {
				tol = warmDriftBytes
			}
			if a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses ||
				a.CacheRollingHits != b.CacheRollingHits || drift > tol {
				agree = false
				detail = fmt.Sprintf("first divergence: %s hop %d (byte drift %d)", r.Pair.Name, j+1, drift)
				break
			}
		}
		if !agree {
			break
		}
	}
	out = append(out, sig("cache.pipelined_agreement", agree, "%s", detail))

	return out
}

func stateSignals(d *runData) []Signal {
	var out []Signal

	bad := 0
	for _, c := range d.baseline {
		if !c.Report.StateConsistent() {
			bad++
		}
	}
	out = append(out, sig("state.consistency", bad == 0,
		"%d cells with diverged service state", bad))

	bad = 0
	for _, c := range d.baseline {
		if c.Report.Outcome != migration.OutcomeOK {
			bad++
		}
	}
	out = append(out, sig("state.outcome_completed", bad == 0,
		"%d clean cells ended outside the completed outcome", bad))

	return out
}

func calibrationSignals(cal *Calibration) []Signal {
	var out []Signal
	for _, r := range cal.Stages {
		out = append(out, sig("calibration.stage_mape."+r.Stage, r.Pass,
			"MAPE %.2f%% (budget %.2f%%)", r.MAPEPct, r.BudgetPct))
	}
	out = append(out, sig("calibration.bytes_mape", cal.BytesPass,
		"MAPE %.2f%% (budget %.2f%%)", cal.BytesMAPEPct, cal.BytesBudgetPct))
	out = append(out, sig("calibration.pearson_stages", cal.StagePearsonR >= cal.PearsonFloor,
		"r=%.4f (floor %.2f)", cal.StagePearsonR, cal.PearsonFloor))
	out = append(out, sig("calibration.pearson_bytes", cal.BytesPearsonR >= cal.PearsonFloor,
		"r=%.4f (floor %.2f)", cal.BytesPearsonR, cal.PearsonFloor))
	headPass, worst := true, 0.0
	for _, h := range cal.Headlines {
		if !h.Pass {
			headPass = false
		}
		if h.ErrPct > worst {
			worst = h.ErrPct
		}
	}
	out = append(out, sig("calibration.headline_total", headPass,
		"worst headline error %.1f%% (budget %.0f%%)", worst, cal.Headlines[0].BudgetPct))
	return out
}

func counterfactualSignals(d *runData, cf *CounterfactualReport) []Signal {
	var out []Signal

	bad := 0
	for i := range d.baseline {
		s := d.baseline[i].Report.TransferredBytes
		if d.pipelined[i].Report.TransferredBytes != s || d.postcopy[i].Report.TransferredBytes != s {
			bad++
		}
	}
	out = append(out, sig("counterfactual.bytes_invariant", bad == 0,
		"%d cells where a policy changed wire bytes", bad))

	exact := true
	for _, r := range cf.TopRegret {
		if r.RegretS < 0 || math.Abs(r.ChosenUserS-r.BestUserS-r.RegretS) > 1e-12 {
			exact = false
		}
	}
	out = append(out, sig("counterfactual.regret_floor", exact && cf.TotalRegretS >= 0,
		"total regret %.2fs over %d cells, top-%d rows exact=%v", cf.TotalRegretS, cf.Cells, len(cf.TopRegret), exact))

	deferralWins := 0
	for _, m := range cf.Modes {
		if m.Mode != ModeSequential {
			deferralWins += m.WinCells
		}
	}
	frac := float64(deferralWins) / float64(cf.Cells)
	out = append(out, sig("counterfactual.deferral_wins", frac >= 0.9,
		"a deferral policy wins %d/%d cells (%.0f%%, floor 90%%)", deferralWins, cf.Cells, 100*frac))

	return out
}
