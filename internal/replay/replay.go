// Package replay implements Flux's Adaptive Replay (paper §3.2). After CRIA
// restores an app on the guest device, the pruned Selective Record log is
// replayed against the guest's own system services so they rebuild the
// app-specific state the home device's services held. Replay is *adaptive*:
// methods decorated with @replayproxy are not replayed verbatim but routed
// through a proxy that adjusts the call to the guest —
//
//   - alarmMgrSet drops alarms that already fired (trigger time at or
//     before the checkpoint instant) so the user is not re-notified;
//   - audioSetStreamVolume rescales the volume index by the home/guest
//     volume-step ratio;
//   - sensorCreateConnection obtains a fresh SensorEventConnection from the
//     guest's SensorService and injects it at the Binder handle the app
//     held before migration;
//   - sensorGetChannel opens a fresh event socket and dup2()s it onto the
//     descriptor number the app expects.
//
// Everything else replays through the restored app's own Binder handles,
// which CRIA re-bound to the guest's services at the original handle ids —
// so a recorded parcel replays bit-for-bit, including embedded handles.
// A malformed log entry is an error, never a panic: every request meets
// the guest aidl.Dispatcher's signature check, and the proxies check what
// they read (aidl.CheckArgs, positional reads of recorded replies).
package replay

import (
	"fmt"
	"sort"
	"time"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/kernel"
	"flux/internal/obs"
	"flux/internal/record"
	"flux/internal/services"
)

// Context carries everything a replay run needs about both sides.
type Context struct {
	// Pkg is the migrating app's package name.
	Pkg string
	// AppProc is the restored app's Binder state on the guest.
	AppProc *binder.Proc
	// KernProc is the restored app's kernel process on the guest.
	KernProc *kernel.Process
	// System is the guest's system_server.
	System *services.System
	// Recorder is the guest's Selective Record recorder. Proxies that
	// rebuild state outside the Binder path (the sensor proxies) append
	// the original log entries here so the guest's log stays complete
	// enough to migrate the app onward or back.
	Recorder *record.Recorder
	// CheckpointTime is the virtual instant the checkpoint was taken on the
	// home device. The alarm proxy compares trigger times against this —
	// not against "now" — so an alarm due mid-migration still fires.
	CheckpointTime time.Time
	// HomeVolumeSteps is the home device's maximum volume index.
	HomeVolumeSteps int32
	// MissingServices lists guest-absent hardware services. Calls to them
	// are skipped (counted in Stats.SkippedMissingHW); with NetworkFallback
	// they are instead marked for remote forwarding to the home device.
	MissingServices map[string]bool
	// NetworkFallback allows device access to continue over the network
	// when the guest lacks the hardware (paper §3.2, Adaptive Replay).
	NetworkFallback bool
	// Anchor is the marshalled seglog anchor from the checkpoint image.
	// When set, Replay re-serializes the entries it was handed and
	// verifies them against it before issuing a single transaction —
	// defense in depth behind cria.Restore's check, so a log mutated
	// between restore and replay is still refused.
	Anchor []byte
	// Span optionally parents the replay's telemetry spans (the migration
	// pipeline passes its reintegration stage span). Nil-safe.
	Span *obs.Span
}

// Stats summarizes one replay run.
type Stats struct {
	Replayed         int // calls re-issued verbatim
	Proxied          int // calls routed through a replay proxy
	SkippedExpired   int // alarm-style calls filtered out by time
	SkippedMissingHW int // calls to hardware the guest lacks
	Forwarded        int // calls marked for network fallback to home
}

// Total returns the number of log entries consumed.
func (s Stats) Total() int {
	return s.Replayed + s.Proxied + s.SkippedExpired + s.SkippedMissingHW + s.Forwarded
}

// Proxy adapts one recorded call to the guest device. Returning
// (skipped=true) counts the entry as time-filtered.
type Proxy func(ctx *Context, e *record.Entry, m *aidl.Method) (skipped bool, err error)

// Engine replays record logs. It is safe to reuse across migrations.
type Engine struct {
	proxies map[string]Proxy
}

// interfaces is the descriptor→interface table every Engine replays
// against: the 23 decorated interfaces of the services catalog (all but
// the package manager, which records nothing). Their @replayproxy paths
// sit in the tables aidl.Parse compiled, so one read-only table per
// process serves every engine.
var interfaces = func() map[string]*aidl.Interface {
	out := make(map[string]*aidl.Interface)
	for _, s := range services.AIDLSpecs() {
		if len(s.Itf.RecordedMethods()) > 0 {
			out[s.Itf.Name] = s.Itf
		}
	}
	return out
}()

// NewEngine builds an engine aware of every decorated interface the
// services package defines, with the standard Flux proxies registered.
func NewEngine() *Engine {
	e := &Engine{proxies: make(map[string]Proxy)}
	e.RegisterProxy("flux.recordreplay.Proxies.alarmMgrSet", AlarmMgrSet)
	e.RegisterProxy("flux.recordreplay.Proxies.audioSetStreamVolume", AudioSetStreamVolume)
	e.RegisterProxy("flux.recordreplay.Proxies.sensorCreateConnection", SensorCreateConnection)
	e.RegisterProxy("flux.recordreplay.Proxies.sensorGetChannel", SensorGetChannel)
	return e
}

// RegisterProxy installs a proxy under its @replayproxy path.
func (e *Engine) RegisterProxy(path string, p Proxy) { e.proxies[path] = p }

// replyDependentProxies names the standard proxies that reconstruct state
// from the recorded *reply* parcel (the sensor proxies re-inject the
// handle/fd the home device handed back). fluxvet uses this to reject
// @replayproxy decorations on oneway methods, which record no reply.
var replyDependentProxies = map[string]bool{
	"flux.recordreplay.Proxies.sensorCreateConnection": true,
	"flux.recordreplay.Proxies.sensorGetChannel":       true,
}

// ProxyPaths returns every registered @replayproxy path, sorted — the
// proxy registry fluxvet resolves decorations against.
func (e *Engine) ProxyPaths() []string {
	out := make([]string, 0, len(e.proxies))
	for path := range e.proxies {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// ProxyInfo reports whether path resolves in the registry and whether the
// proxy replays from the recorded reply parcel.
func (e *Engine) ProxyInfo(path string) (registered, needsReply bool) {
	_, ok := e.proxies[path]
	return ok, replyDependentProxies[path]
}

// Replay re-applies a record log to the guest device in sequence order.
func (e *Engine) Replay(ctx *Context, entries []*record.Entry) (Stats, error) {
	var stats Stats
	if len(ctx.Anchor) > 0 {
		if err := record.VerifyEntriesAnchor(entries, ctx.Anchor); err != nil {
			return stats, fmt.Errorf("replay: refusing unverified log: %w", err)
		}
	}
	sp := ctx.Span.Child("replay.run", obs.Int64("entries", int64(len(entries))))
	defer func() {
		sp.Attr(
			obs.Int64("replayed", int64(stats.Replayed)),
			obs.Int64("proxied", int64(stats.Proxied)),
			obs.Int64("skipped_expired", int64(stats.SkippedExpired)),
			obs.Int64("skipped_missing_hw", int64(stats.SkippedMissingHW)),
			obs.Int64("forwarded", int64(stats.Forwarded)),
		).End()
	}()
	for _, entry := range entries {
		itf, ok := interfaces[entry.Interface]
		if !ok {
			return stats, fmt.Errorf("replay: unknown interface %s in log entry %d", entry.Interface, entry.Seq)
		}
		m := itf.Method(entry.Method)
		if m == nil {
			return stats, fmt.Errorf("replay: %s has no method %s (entry %d)", entry.Interface, entry.Method, entry.Seq)
		}
		if ctx.MissingServices[entry.Service] {
			if ctx.NetworkFallback {
				stats.Forwarded++
			} else {
				stats.SkippedMissingHW++
			}
			continue
		}
		if m.Record != nil && m.Record.ReplayProxy != "" {
			path := m.Record.ReplayProxy
			proxy, ok := e.proxies[path]
			if !ok {
				return stats, fmt.Errorf("replay: no proxy registered for %s", path)
			}
			psp := sp.Child("replay.proxy",
				obs.String("proxy", path),
				obs.String("method", entry.Method),
				obs.Int64("seq", int64(entry.Seq)),
			)
			skipped, err := proxy(ctx, entry, m)
			if err != nil {
				psp.Attr(obs.String("error", err.Error())).End()
				return stats, fmt.Errorf("replay: proxy %s on entry %d: %w", path, entry.Seq, err)
			}
			psp.Attr(obs.Bool("skipped", skipped)).End()
			if skipped {
				stats.SkippedExpired++
			} else {
				stats.Proxied++
			}
			continue
		}
		data, err := entry.Parcel()
		if err != nil {
			return stats, fmt.Errorf("replay: entry %d parcel: %w", entry.Seq, err)
		}
		if _, err := ctx.AppProc.Transact(entry.Handle, entry.Code, data); err != nil {
			return stats, fmt.Errorf("replay: entry %d %s.%s: %w", entry.Seq, entry.Interface, entry.Method, err)
		}
		stats.Replayed++
	}
	return stats, nil
}

// request decodes an entry's request parcel and checks it against m's
// signature, for the proxies that read arguments before any service
// does.
func request(e *record.Entry, m *aidl.Method) (*binder.Parcel, aidl.Args, error) {
	data, err := e.Parcel()
	if err != nil {
		return nil, aidl.Args{}, err
	}
	args, err := aidl.CheckArgs(m, data)
	return data, args, err
}

// AlarmMgrSet is the paper's Figure 10 proxy: verify the alarm is still in
// the future relative to the checkpoint instant, then re-issue the set.
func AlarmMgrSet(ctx *Context, e *record.Entry, m *aidl.Method) (bool, error) {
	data, args, err := request(e, m)
	if err != nil {
		return false, err
	}
	if args.Long(1) <= ctx.CheckpointTime.UnixMilli() { // set(type, triggerAtTime, operation)
		return true, nil // already fired on the home device
	}
	_, err = ctx.AppProc.Transact(e.Handle, e.Code, data)
	return false, err
}

// AudioSetStreamVolume rescales volume indexes by the home/guest step
// ratio, for both setStreamVolume(stream,index,flags) and
// adjustStreamVolume(stream,direction,flags).
func AudioSetStreamVolume(ctx *Context, e *record.Entry, m *aidl.Method) (bool, error) {
	_, args, err := request(e, m)
	if err != nil {
		return false, err
	}
	stream, val, flags := args.Int(0), args.Int(1), args.Int(2)
	if m.Name == "setStreamVolume" && ctx.HomeVolumeSteps > 0 {
		guestSteps := ctx.System.Audio.MaxSteps()
		val = int32(float64(val)*float64(guestSteps)/float64(ctx.HomeVolumeSteps) + 0.5)
	}
	out, err := aidl.MarshalCallArgs(m, stream, val, flags)
	if err != nil {
		return false, err
	}
	_, err = ctx.AppProc.Transact(e.Handle, e.Code, out)
	return false, err
}

// SensorCreateConnection re-creates a SensorEventConnection on the guest's
// SensorService and injects it at the handle the app held before migration
// (taken from the recorded reply parcel).
func SensorCreateConnection(ctx *Context, e *record.Entry, m *aidl.Method) (bool, error) {
	reply, err := binder.UnmarshalParcel(e.Reply)
	if err != nil {
		return false, fmt.Errorf("replay: createSensorEventConnection entry %d reply: %w", e.Seq, err)
	}
	origHandle, err := reply.HandleAt(0)
	if err != nil {
		return false, fmt.Errorf("replay: createSensorEventConnection entry %d reply: %w", e.Seq, err)
	}
	conn, err := ctx.System.Sensors.NewConnection(ctx.Pkg)
	if err != nil {
		return false, err
	}
	if err := ctx.AppProc.InjectRef(origHandle, conn.Node()); err != nil {
		return false, fmt.Errorf("replay: injecting connection at handle %d: %w", origHandle, err)
	}
	appendOriginal(ctx, e)
	return false, nil
}

// appendOriginal copies a recorded entry into the guest's log so the next
// migration can replay it again. Proxies that reconstruct state outside the
// normal Binder path use this; verbatim replays are re-recorded by the
// guest's own interposer.
func appendOriginal(ctx *Context, e *record.Entry) {
	if ctx.Recorder == nil {
		return
	}
	cp := *e
	cp.Data = append([]byte(nil), e.Data...)
	if e.Reply != nil {
		cp.Reply = append([]byte(nil), e.Reply...)
	}
	ctx.Recorder.Log().Append(&cp)
}

// SensorGetChannel re-opens the connection's event socket and dup2()s it
// onto the descriptor number the app held before migration.
func SensorGetChannel(ctx *Context, e *record.Entry, m *aidl.Method) (bool, error) {
	reply, err := binder.UnmarshalParcel(e.Reply)
	if err != nil {
		return false, fmt.Errorf("replay: getSensorChannel entry %d reply: %w", e.Seq, err)
	}
	origFD, err := reply.FDAt(0)
	if err != nil {
		return false, fmt.Errorf("replay: getSensorChannel entry %d reply: %w", e.Seq, err)
	}
	// The connection node sits at the entry's recorded handle (the create
	// proxy put it back there). Call through Binder so the guest service
	// opens a fresh channel in the app's fd table. Recording pauses so the
	// guest log captures the ORIGINAL fd (which the dup2 below makes true
	// again), not the transient fresh one.
	if ctx.Recorder != nil {
		ctx.Recorder.Pause(ctx.Pkg)
		defer ctx.Recorder.Resume(ctx.Pkg)
	}
	fresh, err := ctx.AppProc.Transact(e.Handle, e.Code, binder.NewParcel())
	if err != nil {
		return false, err
	}
	newFD, err := fresh.FDAt(0)
	if err != nil {
		return false, fmt.Errorf("replay: guest getSensorChannel reply: %w", err)
	}
	if newFD == origFD {
		return false, nil
	}
	if err := ctx.KernProc.Dup2(newFD, origFD); err != nil {
		return false, err
	}
	// Tell the connection where its channel ended up.
	node, err := ctx.AppProc.Node(e.Handle)
	if err == nil {
		for _, c := range ctx.System.Sensors.Connections(ctx.Pkg) {
			if c.Node() == node {
				c.SetChannelFD(origFD)
			}
		}
	}
	appendOriginal(ctx, e)
	return false, nil
}
