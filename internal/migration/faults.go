// Fault recovery for the migration pipeline.
//
// The evaluation network is a congested campus 802.11n deployment (paper
// §4): links flap, chunks arrive corrupted or not at all, and the guest
// can fail a restore or a replay entry. This file implements the
// recovery contract around those faults:
//
//   - Resumable chunked transfer. The image ships as chunks (the same
//     partition the streaming pipeline uses); a chunk that flaps,
//     corrupts (caught by the FXC2 per-block CRC32), or is lost is
//     re-requested INDIVIDUALLY. Chunks that already landed and verified
//     are never reshipped, so Report.RetransmitBytes stays strictly
//     below the image size for any recovered run.
//   - Capped exponential backoff on the virtual clock, bounded by a
//     per-stage timeout and a per-unit retry cap (RetryPolicy).
//   - Rollback-to-home. If retries exhaust, or any stage fails after the
//     checkpoint, the guest's partial state is discarded and the home
//     device foregrounds the still-intact app — the app is never lost.
//     The error wraps ErrRolledBack and the report says
//     Outcome == OutcomeRolledBack.
//
// Everything here but rollback is gated behind a non-nil
// faults.Injector: a run without one takes none of these paths and is
// bit-identical (timings, bytes, metrics, spans) to a build without the
// subsystem.

package migration

import (
	"errors"
	"fmt"
	"time"

	"flux/internal/android"
	"flux/internal/faults"
	"flux/internal/netsim"
	"flux/internal/obs"
)

// Migration outcomes carried in Report.Outcome.
const (
	// OutcomeOK is a migration that completed and foregrounded on the
	// guest.
	OutcomeOK = "ok"
	// OutcomeRolledBack is a migration that failed after the checkpoint
	// (fault recovery exhausted its retries, or a stage returned an
	// error): the guest's partial state was discarded and the home
	// device foregrounded the intact app.
	OutcomeRolledBack = "rolled-back-to-home"
)

// ErrRolledBack reports a migration that failed after the checkpoint
// but recovered the app on the home device. The app is runnable at
// home; no state was lost. The wrapping error names the cause.
var ErrRolledBack = errors.New("migration: rolled back to home device")

// RetryPolicy bounds fault recovery. The zero value means defaults
// (DefaultRetryPolicy) — callers only set fields they want to pin.
type RetryPolicy struct {
	// MaxRetries caps recovery attempts per unit (per chunk on the
	// wire, per stage for restore/replay). Exceeding it rolls the
	// migration back to the home device.
	MaxRetries int
	// BaseBackoff is the first retry's backoff on the virtual clock;
	// each further attempt doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
	// StageTimeout caps the total recovery overhead a single stage may
	// accumulate before the migration rolls back.
	StageTimeout time.Duration
}

// DefaultRetryPolicy is the policy used when Options.Retry is zero.
// Eight retries per unit: at a 15% i.i.d. per-attempt fault rate a chunk
// rolls back with probability 0.15^9 ≈ 4e-8, so even hostile links
// complete the evaluation matrix; truly persistent faults still exhaust
// in under four (capped) backoff seconds.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:   8,
		BaseBackoff:  50 * time.Millisecond,
		MaxBackoff:   2 * time.Second,
		StageTimeout: 30 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxRetries <= 0 {
		p.MaxRetries = def.MaxRetries
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	if p.StageTimeout <= 0 {
		p.StageTimeout = def.StageTimeout
	}
	return p
}

// Backoff returns the capped exponential backoff before retry `attempt`
// (1-based): BaseBackoff·2^(attempt-1), capped at MaxBackoff.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// faultRun carries one migration's fault-recovery state. A nil *faultRun
// is the fast path: Migrate constructs one only when the injector can
// fire, so zero-fault runs take no recovery branches at all.
type faultRun struct {
	inj  *faults.Injector
	pol  RetryPolicy
	link netsim.Link
	rep  *Report
}

// faultRun builds the per-migration recovery state, or nil when fault
// injection is off (nil/empty injector).
func (m *Migrator) faultRun(rep *Report, link netsim.Link) *faultRun {
	if !m.Opts.Faults.Enabled() {
		return nil
	}
	return &faultRun{
		inj:  m.Opts.Faults,
		pol:  m.Opts.Retry.withDefaults(),
		link: link,
		rep:  rep,
	}
}

// wireFaultSites is the order chunk-level questions are asked in; fixed
// order keeps the injector's decision stream deterministic.
var wireFaultSites = [...]faults.Site{faults.LinkFlap, faults.ChunkLoss, faults.ChunkCorrupt}

// chunkFault asks the injector, in stable order, whether this chunk
// attempt faults; returns the first firing site.
func (fr *faultRun) chunkFault() (faults.Site, bool) {
	for _, s := range wireFaultSites {
		if fr.inj.Should(s) {
			return s, true
		}
	}
	return "", false
}

// account emits the per-event telemetry: one fault.retry span under the
// stage span.
func (fr *faultRun) account(sp *obs.Span, stage Stage, site faults.Site, attempt int, backoff, cost time.Duration, resentBytes int64) {
	if sp != nil {
		sp.Child(SpanFaultRetry,
			obs.String("site", string(site)),
			obs.String("stage", stage.String()),
			obs.Int64("attempt", int64(attempt)),
			obs.Int64("backoff_us", backoff.Microseconds()),
			obs.Int64("recovery_us", cost.Microseconds()),
			obs.Int64("resent_bytes", resentBytes),
		).End()
	}
}

// transferRecovery walks the wire chunks and prices every injected
// transfer fault: the wasted airtime, the renegotiation or detection
// delay, the capped backoff, and the chunk's individual retransmission.
// Only the failing chunk is reshipped — verified chunks never move
// again. Returns the total recovery overhead to fold into the transfer
// stage, or an error when a chunk exceeds MaxRetries or the stage
// exceeds StageTimeout (the caller rolls back).
func (fr *faultRun) transferRecovery(sp *obs.Span, wires []int64) (time.Duration, error) {
	var overhead time.Duration
	for i, w := range wires {
		if w < 0 {
			w = 0
		}
		attempt := 0
		for {
			site, faulted := fr.chunkFault()
			if !faulted {
				break // chunk landed and its CRC verified
			}
			attempt++
			if attempt > fr.pol.MaxRetries {
				return overhead, fmt.Errorf("chunk %d/%d (%d bytes): %s persisted through %d retries",
					i+1, len(wires), w, site, fr.pol.MaxRetries)
			}
			backoff := fr.pol.Backoff(attempt)
			resend := fr.link.AirTime(w) + netsim.StreamChunkOverhead
			var cost time.Duration
			switch site {
			case faults.LinkFlap:
				// Session dropped mid-chunk: half the chunk's airtime is
				// wasted, the link renegotiates, then the chunk reships.
				cost = fr.link.AirTime(w)/2 + fr.link.Latency() + backoff + resend
			case faults.ChunkCorrupt:
				// The chunk arrived whole but its CRC32 rejected it; the
				// receiver re-requests exactly this chunk.
				cost = backoff + resend
			case faults.ChunkLoss:
				// Silent drop: the receiver's timeout (the backoff)
				// detects it, then the chunk reships.
				cost = backoff + resend
			default:
				cost = backoff + resend
			}
			overhead += cost
			fr.rep.Retries++
			fr.rep.RetransmitBytes += w
			fr.account(sp, StageTransfer, site, attempt, backoff, cost, w)
			if overhead > fr.pol.StageTimeout {
				return overhead, fmt.Errorf("transfer recovery exceeded stage timeout %v (overhead %v)",
					fr.pol.StageTimeout, overhead)
			}
		}
	}
	return overhead, nil
}

// stageRecovery prices repeated failures of a whole-stage operation
// (restore attempt, replay pass): each injected failure costs the wasted
// attempt plus capped backoff, bounded by MaxRetries and StageTimeout.
func (fr *faultRun) stageRecovery(sp *obs.Span, stage Stage, site faults.Site, attemptCost time.Duration) (time.Duration, error) {
	var overhead time.Duration
	attempt := 0
	for fr.inj.Should(site) {
		attempt++
		if attempt > fr.pol.MaxRetries {
			return overhead, fmt.Errorf("%s: %s persisted through %d retries", stage, site, fr.pol.MaxRetries)
		}
		backoff := fr.pol.Backoff(attempt)
		cost := attemptCost + backoff
		overhead += cost
		fr.rep.Retries++
		fr.account(sp, stage, site, attempt, backoff, cost, 0)
		if overhead > fr.pol.StageTimeout {
			return overhead, fmt.Errorf("%s recovery exceeded stage timeout %v", stage, fr.pol.StageTimeout)
		}
	}
	return overhead, nil
}

// rollback discards the guest's partial state and restores the app to
// the foreground on the home device. The home app is intact by
// construction: Migrate kills it only in post-migration bookkeeping,
// which runs strictly after every error and fault site. Returns the
// report (with Outcome set) and an error wrapping ErrRolledBack and
// naming the cause.
func (m *Migrator) rollback(rep *Report, homeApp, guestApp *android.App, cause error) (*Report, error) {
	if guestApp != nil {
		m.Guest.Runtime.Kill(guestApp)
	}
	m.Guest.System.ForgetApp(rep.Pkg)
	m.Guest.Recorder.Log().DropApp(rep.Pkg)
	if gi := m.Guest.Installed(rep.Pkg); gi != nil {
		gi.MigratedTo = ""
	}
	// The home install never marked itself migrated-away (that happens
	// in post-migration bookkeeping), so a native start stays legal; we
	// additionally bring the app back to the foreground so the user
	// lands where they started.
	cause = m.foregroundHome(homeApp, cause)
	rep.Outcome = OutcomeRolledBack
	rep.FaultEvents = m.Opts.Faults.Stats()
	return rep, fmt.Errorf("%w: %v", ErrRolledBack, cause)
}

// foregroundHome resumes the home app after a refusal or a rollback. If
// that fails the app survives backgrounded, and the failure is appended
// to cause rather than masking it.
func (m *Migrator) foregroundHome(app *android.App, cause error) error {
	if ferr := m.Home.Runtime.Foreground(app); ferr != nil {
		return fmt.Errorf("%w (home foreground: %v)", cause, ferr)
	}
	return cause
}

// chunkWires partitions a sequential transfer's wire bytes into the
// resumable chunk sizes fault recovery retransmits at. Pipelined runs
// use the plan's real lanes instead; this mirrors that partition for the
// stop-and-copy path. Degenerate totals yield a single zero chunk (the
// session itself can still flap).
func chunkWires(total, chunkBytes int64) []int64 {
	if total <= 0 {
		return []int64{0}
	}
	if chunkBytes <= 0 {
		chunkBytes = DefaultPipelineChunkBytes
	}
	n := (total + chunkBytes - 1) / chunkBytes
	out := make([]int64, 0, n)
	for total > 0 {
		c := chunkBytes
		if total < c {
			c = total
		}
		out = append(out, c)
		total -= c
	}
	return out
}
