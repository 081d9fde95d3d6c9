package android

import (
	"fmt"
	"sync"
	"time"

	"flux/internal/gpu"
	"flux/internal/kernel"
)

// Runtime is the framework runtime of one device: it launches apps, drives
// their life cycle (including the task idler), and delivers broadcasts.
type Runtime struct {
	kern     *kernel.Kernel
	screen   Screen
	hw       gpu.Hardware
	idleWait time.Duration

	mu   sync.Mutex
	apps map[string]*App
}

// RuntimeOptions configures a device's framework runtime.
type RuntimeOptions struct {
	Screen Screen
	GPU    gpu.Hardware
	// IdleWait is how long the task idler waits before stopping a
	// backgrounded app; the paper's unoptimized prototype depends on this.
	IdleWait time.Duration
}

// NewRuntime boots the framework on a kernel.
func NewRuntime(k *kernel.Kernel, opts RuntimeOptions) *Runtime {
	if opts.IdleWait == 0 {
		opts.IdleWait = 500 * time.Millisecond
	}
	return &Runtime{
		kern:     k,
		screen:   opts.Screen,
		hw:       opts.GPU,
		idleWait: opts.IdleWait,
		apps:     make(map[string]*App),
	}
}

// Kernel returns the runtime's kernel.
func (r *Runtime) Kernel() *kernel.Kernel { return r.kern }

// Screen returns the device's display geometry.
func (r *Runtime) Screen() Screen { return r.screen }

// GPU returns the device's graphics hardware.
func (r *Runtime) GPU() gpu.Hardware { return r.hw }

// IdleWait returns the task idler delay.
func (r *Runtime) IdleWait() time.Duration { return r.idleWait }

// App returns the running instance of a package, or nil.
func (r *Runtime) App(pkg string) *App {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.apps[pkg]
}

// Apps returns all running apps.
func (r *Runtime) Apps() []*App {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*App, 0, len(r.apps))
	for _, a := range r.apps {
		out = append(out, a)
	}
	return out
}

// PackageOf resolves a pid to the owning app's package name; it is the hook
// the Selective Record recorder uses to attribute Binder calls.
func (r *Runtime) PackageOf(pid int) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for pkg, a := range r.apps {
		if a.hasPID(pid) {
			return pkg, true
		}
	}
	return "", false
}

// Launch starts an app: processes are created, the heap mapped, the GL
// library linked, and the main activity resumed in the foreground.
func (r *Runtime) Launch(spec AppSpec) (*App, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, ok := r.apps[spec.Package]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("android: app %s already running", spec.Package)
	}
	r.mu.Unlock()

	proc, err := r.kern.CreateProcess(kernel.ProcessOptions{Name: spec.Package, UID: 10000})
	if err != nil {
		return nil, err
	}
	proc.MapSegment(kernel.MemSegment{Name: "dalvik-heap", Kind: kernel.SegHeap, Size: spec.HeapBytes, Entropy: spec.HeapEntropy})
	proc.MapSegment(kernel.MemSegment{Name: "apk-code", Kind: kernel.SegCode, Size: 4 << 20, Entropy: 0.9})

	app := &App{
		runtime:    r,
		spec:       spec,
		proc:       proc,
		lib:        gpu.NewLibrary(r.hw, r.kern.Pmem, proc.PID()),
		receivers:  newReceiverSet(),
		savedState: make(map[string]string),
	}
	for i := 0; i < spec.ExtraProcesses; i++ {
		ep, err := r.kern.CreateProcess(kernel.ProcessOptions{
			Name: fmt.Sprintf("%s:proc%d", spec.Package, i+1), UID: 10000,
		})
		if err != nil {
			return nil, err
		}
		ep.MapSegment(kernel.MemSegment{Name: "dalvik-heap", Kind: kernel.SegHeap, Size: spec.HeapBytes / 4, Entropy: spec.HeapEntropy})
		app.extraProcs = append(app.extraProcs, ep)
	}
	app.registerFrameworkReceivers()
	act := &Activity{Name: spec.MainActivity, state: StateStopped}
	app.activities = append(app.activities, act)

	r.mu.Lock()
	r.apps[spec.Package] = app
	r.mu.Unlock()

	if err := app.resume(act); err != nil {
		return nil, err
	}
	return app, nil
}

// RestoreOptions parameterize RestoreApp.
type RestoreOptions struct {
	Spec      AppSpec
	State     RuntimeState
	Namespace *kernel.PIDNamespace
	VPID      int
	// Foreground controls whether the main activity resumes immediately;
	// Flux's reintegration brings the app to the foreground as its last step,
	// so restore itself leaves activities in their checkpointed state.
	Foreground bool
}

// RestoreApp reconstructs an app from a portable snapshot inside a private
// PID namespace. Graphics state is *not* restored: conditional
// initialization rebuilds it, sized for this device's screen, when the app
// is brought to the foreground.
func (r *Runtime) RestoreApp(opts RestoreOptions) (*App, error) {
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, ok := r.apps[opts.Spec.Package]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("android: app %s already running", opts.Spec.Package)
	}
	r.mu.Unlock()

	proc, err := r.kern.CreateProcess(kernel.ProcessOptions{
		Name:      opts.Spec.Package,
		UID:       10000,
		Namespace: opts.Namespace,
		VPID:      opts.VPID,
	})
	if err != nil {
		return nil, err
	}
	proc.MapSegment(kernel.MemSegment{Name: "dalvik-heap", Kind: kernel.SegHeap, Size: opts.Spec.HeapBytes, Entropy: opts.Spec.HeapEntropy})
	proc.MapSegment(kernel.MemSegment{Name: "apk-code", Kind: kernel.SegCode, Size: 4 << 20, Entropy: 0.9})

	app := &App{
		runtime:    r,
		spec:       opts.Spec,
		proc:       proc,
		lib:        gpu.NewLibrary(r.hw, r.kern.Pmem, proc.PID()),
		receivers:  newReceiverSet(),
		savedState: make(map[string]string),
	}
	for k, v := range opts.State.SavedState {
		app.savedState[k] = v
	}
	app.connectivity = append(app.connectivity, opts.State.Connectivity...)
	app.registerFrameworkReceivers()
	for _, snap := range opts.State.Activities {
		app.activities = append(app.activities, &Activity{Name: snap.Name, state: StateStopped})
	}
	if len(app.activities) == 0 {
		app.activities = append(app.activities, &Activity{Name: opts.Spec.MainActivity, state: StateStopped})
	}

	r.mu.Lock()
	r.apps[opts.Spec.Package] = app
	r.mu.Unlock()

	if opts.Foreground {
		if err := r.Foreground(app); err != nil {
			return nil, err
		}
	}
	return app, nil
}

// MoveToBackground pauses the app's activities and arms the task idler,
// which will stop them (destroying surfaces) after IdleWait of virtual time.
func (r *Runtime) MoveToBackground(app *App) {
	app.pause()
	r.kern.Clock().AfterFunc(r.idleWait, func(time.Time) {
		app.stop()
	})
}

// Foreground resumes the app's top activity, rebuilding window, surface,
// and — through conditional initialization — GL state for this device.
func (r *Runtime) Foreground(app *App) error {
	act := app.TopActivity()
	if act == nil {
		return fmt.Errorf("android: app %s has no activities", app.Package())
	}
	return app.resume(act)
}

// StartActivity pushes a new activity onto the app's back stack: the
// current top pauses (its surface survives until the task idler stops it)
// and the new activity resumes in the foreground.
func (r *Runtime) StartActivity(app *App, name string) (*Activity, error) {
	if top := app.TopActivity(); top != nil {
		top.mu.Lock()
		if top.state == StateResumed {
			top.state = StatePaused
		}
		top.mu.Unlock()
		r.kern.Clock().AfterFunc(r.idleWait, func(time.Time) { app.stop() })
	}
	act := &Activity{Name: name, state: StateStopped}
	app.pushActivity(act)
	if err := app.resume(act); err != nil {
		return nil, err
	}
	return act, nil
}

// BackPressed pops the top activity (destroying its window) and resumes
// the one beneath it. Popping the last activity is refused; backing out of
// the whole app is the launcher's job, not the stack's.
func (r *Runtime) BackPressed(app *App) error {
	popped, newTop, err := app.popActivity()
	if err != nil {
		return err
	}
	popped.mu.Lock()
	if popped.window != nil {
		popped.window.destroySurface()
		app.proc.UnmapSegments(func(s kernel.MemSegment) bool {
			return s.Name == "surface:"+popped.Name
		})
		if vr := popped.window.ViewRoot(); vr.renderer != nil {
			_ = vr.renderer.startTrimMemory()
			_ = vr.renderer.endTrimMemory()
		}
	}
	popped.state = StateStopped
	popped.mu.Unlock()
	return app.resume(newTop)
}

// Broadcast delivers an intent to all running apps (or the targeted
// package), returning how many receivers fired.
func (r *Runtime) Broadcast(in Intent) int {
	n := 0
	for _, app := range r.Apps() {
		if in.Pkg != "" && in.Pkg != app.Package() {
			continue
		}
		n += app.deliver(in)
	}
	return n
}

// InjectConnectivityChange tells one app connectivity was lost and a new
// network is available — Flux's reintegration step for network state.
func (r *Runtime) InjectConnectivityChange(app *App, network string) {
	app.deliver(Intent{Action: ActionConnectivityChange, Pkg: app.Package(), Extras: map[string]string{"state": "lost"}})
	app.deliver(Intent{Action: ActionConnectivityChange, Pkg: app.Package(), Extras: map[string]string{"state": "connected", "network": network}})
}

// Kill terminates an app's processes and forgets it. Used after a
// successful migration out and by tests simulating low-memory kills.
func (r *Runtime) Kill(app *App) {
	app.mu.Lock()
	app.exited = true
	procs := append([]*kernel.Process{app.proc}, app.extraProcs...)
	app.mu.Unlock()
	for _, p := range procs {
		// Force-release any preserved GL contexts: the process is dying.
		p.Exit()
	}
	for _, c := range app.GL().Contexts() {
		_ = c.Destroy(true)
	}
	r.mu.Lock()
	delete(r.apps, app.Package())
	r.mu.Unlock()
}
