package android

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"flux/internal/gpu"
	"flux/internal/kernel"
)

// ActivityState is the life-cycle state machine from paper §2.
type ActivityState uint8

const (
	// StateResumed: foreground, receiving input, rendering.
	StateResumed ActivityState = iota
	// StatePaused: backgrounded or partially obscured; no input, no code.
	StatePaused
	// StateStopped: invisible; surface destroyed, cannot render.
	StateStopped
)

func (s ActivityState) String() string {
	switch s {
	case StateResumed:
		return "Resumed"
	case StatePaused:
		return "Paused"
	case StateStopped:
		return "Stopped"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Activity is one UI component of an app.
type Activity struct {
	Name string

	mu     sync.Mutex
	state  ActivityState
	window *Window
}

// State returns the activity's life-cycle state.
func (a *Activity) State() ActivityState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// Window returns the activity's window, nil before first resume.
func (a *Activity) Window() *Window {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.window
}

// AppSpec declares an app's static shape: its package identity and the
// resource profile its workload exercises. Workload drivers in
// internal/apps instantiate these from Table 3.
type AppSpec struct {
	Package      string
	Label        string
	MainActivity string
	Views        []string
	APIKLevel    int // minimum API level the APK requires

	// Resource profile.
	HeapBytes         int64   // Dalvik heap + native allocations
	HeapEntropy       float64 // compressibility of the heap
	TextureCacheBytes int64   // GPU texture cache at steady state

	// Behavioural flags from the paper's evaluation.
	PreserveEGLContext bool // Subway Surfers: blocks migration
	ExtraProcesses     int  // Facebook: multi-process, blocks migration
}

// Validate checks the spec for internal consistency.
func (s AppSpec) Validate() error {
	if s.Package == "" {
		return fmt.Errorf("android: app spec needs a package name")
	}
	if s.MainActivity == "" {
		return fmt.Errorf("android: app %s needs a main activity", s.Package)
	}
	if s.HeapBytes < 0 || s.TextureCacheBytes < 0 || s.ExtraProcesses < 0 {
		return fmt.Errorf("android: app %s has negative resources", s.Package)
	}
	if s.HeapEntropy < 0 || s.HeapEntropy > 1 {
		return fmt.Errorf("android: app %s heap entropy %f out of [0,1]", s.Package, s.HeapEntropy)
	}
	return nil
}

// App is a running app instance on one device.
type App struct {
	runtime *Runtime
	spec    AppSpec

	mu           sync.Mutex
	proc         *kernel.Process
	extraProcs   []*kernel.Process
	lib          *gpu.Library
	activities   []*Activity
	receivers    *receiverSet
	savedState   map[string]string
	connectivity []string // connectivity events the app has observed
	intentsSeen  []string // broadcast intents delivered to the app
	providerBusy bool     // mid-ContentProvider transaction
	exited       bool
}

// Spec returns the app's static spec.
func (a *App) Spec() AppSpec { return a.spec }

// Package returns the app's package name.
func (a *App) Package() string { return a.spec.Package }

// Process returns the app's main process.
func (a *App) Process() *kernel.Process {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.proc
}

// Processes returns the main process followed by any extra processes.
func (a *App) Processes() []*kernel.Process {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := []*kernel.Process{a.proc}
	return append(out, a.extraProcs...)
}

// hasPID reports whether pid is one of the app's processes, without
// copying the process list: PackageOf runs it on every recorded Binder
// call.
func (a *App) hasPID(pid int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.proc.PID() == pid {
		return true
	}
	for _, p := range a.extraProcs {
		if p.PID() == pid {
			return true
		}
	}
	return false
}

// GL returns the app's OpenGL library instance.
func (a *App) GL() *gpu.Library {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lib
}

// Activities returns the app's activities.
func (a *App) Activities() []*Activity {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*Activity(nil), a.activities...)
}

// MainActivity returns the app's main activity.
func (a *App) MainActivity() *Activity {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.activities) == 0 {
		return nil
	}
	return a.activities[0]
}

// TopActivity returns the activity at the top of the back stack — the one
// the user sees when the app is foregrounded.
func (a *App) TopActivity() *Activity {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.activities) == 0 {
		return nil
	}
	return a.activities[len(a.activities)-1]
}

// pushActivity appends a new activity to the back stack.
func (a *App) pushActivity(act *Activity) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.activities = append(a.activities, act)
}

// popActivity removes the top activity, returning it and the new top; it
// refuses to pop the last activity.
func (a *App) popActivity() (popped, newTop *Activity, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.activities) < 2 {
		return nil, nil, fmt.Errorf("android: %s: cannot pop the last activity", a.spec.Package)
	}
	popped = a.activities[len(a.activities)-1]
	a.activities = a.activities[:len(a.activities)-1]
	return popped, a.activities[len(a.activities)-1], nil
}

// PutSavedState stores a key in the app's saved-instance-state bundle; this
// is the app-managed state that survives process death in stock Android and
// rides inside the CRIA image in Flux.
func (a *App) PutSavedState(key, value string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.savedState[key] = value
}

// SavedState returns a copy of the bundle.
func (a *App) SavedState() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string, len(a.savedState))
	for k, v := range a.savedState {
		out[k] = v
	}
	return out
}

// RegisterReceiver registers a broadcast receiver for an action.
func (a *App) RegisterReceiver(action string, fn func(Intent)) *BroadcastReceiver {
	return a.receivers.register(action, fn)
}

// UnregisterReceiver removes a receiver.
func (a *App) UnregisterReceiver(r *BroadcastReceiver) { a.receivers.unregister(r) }

// ReceiverActions lists actions the app listens for, sorted.
func (a *App) ReceiverActions() []string { return a.receivers.actions() }

// deliver sends an intent to the app's receivers, remembering it for tests.
func (a *App) deliver(in Intent) int {
	a.mu.Lock()
	a.intentsSeen = append(a.intentsSeen, in.String())
	a.mu.Unlock()
	return a.receivers.deliver(in)
}

// ConnectivityEvents returns the connectivity transitions the app observed,
// e.g. ["lost", "connected:wifi-guest"].
func (a *App) ConnectivityEvents() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.connectivity...)
}

// IntentsSeen lists delivered intents in order.
func (a *App) IntentsSeen() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.intentsSeen...)
}

// OpenCommonSDFile opens a file in the shared SD card area (outside the
// app-specific /sdcard/Android/data/<pkg>/ directory). Flux migrates only
// app-specific SD data, so apps holding common SD files open at checkpoint
// time cannot migrate (paper §3.4).
func (a *App) OpenCommonSDFile(path string) (int, error) {
	return a.Process().OpenFD(kernel.FDFile, path)
}

// CommonSDFilesOpen lists open descriptors pointing into the shared SD
// card area.
func (a *App) CommonSDFilesOpen() []string {
	appPrefix := "/sdcard/Android/data/" + a.spec.Package + "/"
	var out []string
	for _, fd := range a.Process().FDs() {
		if fd.Kind != kernel.FDFile || !strings.HasPrefix(fd.Path, "/sdcard/") {
			continue
		}
		if !strings.HasPrefix(fd.Path, appPrefix) {
			out = append(out, fd.Path)
		}
	}
	return out
}

// BeginProviderUse marks the app as mid-ContentProvider transaction;
// migration refuses while set (paper §3.4).
func (a *App) BeginProviderUse() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.providerBusy = true
}

// EndProviderUse clears the ContentProvider-busy mark.
func (a *App) EndProviderUse() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.providerBusy = false
}

// ProviderBusy reports whether a ContentProvider transaction is open.
func (a *App) ProviderBusy() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.providerBusy
}

// Exited reports whether the app's processes have terminated.
func (a *App) Exited() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.exited
}

// registerFrameworkReceivers installs the receivers every Android app gets
// from the framework glue; they are re-created on restore, which is how the
// reintegration phase can inform the app of connectivity and hardware
// changes without serializing closures.
func (a *App) registerFrameworkReceivers() {
	a.RegisterReceiver(ActionConnectivityChange, func(in Intent) {
		a.mu.Lock()
		defer a.mu.Unlock()
		if in.Extra("state") == "lost" {
			a.connectivity = append(a.connectivity, "lost")
		} else {
			a.connectivity = append(a.connectivity, "connected:"+in.Extra("network"))
		}
	})
	a.RegisterReceiver(ActionConfigurationChange, func(in Intent) {
		for _, act := range a.Activities() {
			if w := act.Window(); w != nil {
				w.ViewRoot().Invalidate()
			}
		}
	})
}

// resume transitions an activity to Resumed, creating its window and
// surface on the runtime's screen if needed, then traverses the hierarchy.
func (a *App) resume(act *Activity) error {
	screen := a.runtime.Screen()
	act.mu.Lock()
	if act.window == nil || act.window.ViewRoot().isDestroyed() {
		// First resume, or conditional reinitialization after the trim
		// cascade destroyed the ViewRoot: build a fresh window sized for
		// this device's screen.
		act.window = newWindow(screen, a.GL(), a.spec.PreserveEGLContext, a.spec.Views)
		a.mapSurface(act)
	} else if act.window.Surface() == nil {
		act.window.recreateSurface(screen)
		act.window.ViewRoot().Invalidate()
		a.mapSurface(act)
	}
	act.state = StateResumed
	w := act.window
	act.mu.Unlock()
	return w.Traverse(a.spec.TextureCacheBytes)
}

func (a *App) mapSurface(act *Activity) {
	a.proc.MapSegment(kernel.MemSegment{
		Name:    "surface:" + act.Name,
		Kind:    kernel.SegGraphics,
		Size:    a.runtime.Screen().PixelBytes(),
		Entropy: 0.95,
	})
}

// pause transitions all Resumed activities to Paused.
func (a *App) pause() {
	for _, act := range a.Activities() {
		act.mu.Lock()
		if act.state == StateResumed {
			act.state = StatePaused
		}
		act.mu.Unlock()
	}
}

// stop transitions Paused activities to Stopped, destroying their surfaces
// (the task idler's job).
func (a *App) stop() {
	for _, act := range a.Activities() {
		act.mu.Lock()
		if act.state == StatePaused {
			act.state = StateStopped
			if act.window != nil {
				act.window.destroySurface()
				a.proc.UnmapSegments(func(s kernel.MemSegment) bool {
					return s.Name == "surface:"+act.Name
				})
			}
		}
		act.mu.Unlock()
	}
}

// HandleTrimMemory runs the complete trim cascade from paper §3.3 at the
// highest severity: flush renderer caches, terminate hardware resources of
// every ViewRoot, terminate all OpenGL contexts, and destroy the ViewRoots.
// It fails with gpu.ErrContextPreserved when the app preserves its context.
func (a *App) HandleTrimMemory() error {
	roots := a.viewRoots()
	// Step 1+2: WindowManager.startTrimMemory → flush HardwareRenderer caches.
	for _, vr := range roots {
		if vr.renderer != nil {
			if err := vr.renderer.startTrimMemory(); err != nil {
				return err
			}
		}
	}
	// Step 3: terminateHardwareResources on every ViewRoot.
	for _, vr := range roots {
		if err := vr.terminateHardwareResources(); err != nil {
			return err
		}
	}
	// Step 4: WindowManager.endTrimMemory → terminate all OpenGL contexts.
	for _, vr := range roots {
		if vr.renderer != nil {
			if err := vr.renderer.endTrimMemory(); err != nil {
				return err
			}
		}
	}
	if err := a.GL().TerminateAll(); err != nil {
		return err
	}
	// The ViewRoots themselves are destroyed, removing device-specific
	// references; conditional initialization rebuilds them on restore.
	for _, vr := range roots {
		vr.mu.Lock()
		vr.destroyed = true
		vr.mu.Unlock()
	}
	return nil
}

func (a *App) viewRoots() []*ViewRoot {
	var out []*ViewRoot
	for _, act := range a.Activities() {
		if w := act.Window(); w != nil {
			out = append(out, w.ViewRoot())
		}
	}
	return out
}

// EGLUnload removes the vendor-library state after the trim cascade.
func (a *App) EGLUnload() error { return a.GL().EGLUnload() }

// DeviceSpecificResident reports any device-tied state still resident
// (GL contexts, vendor library, graphics segments); empty means the app is
// safe to checkpoint for a heterogeneous target.
func (a *App) DeviceSpecificResident() []string {
	var out []string
	if s := a.GL().DeviceSpecificResident(); s != "" {
		out = append(out, s)
	}
	if n := a.Process().MemoryBytes(kernel.SegGraphics); n > 0 {
		out = append(out, fmt.Sprintf("%d bytes of graphics segments", n))
	}
	for _, act := range a.Activities() {
		if w := act.Window(); w != nil && w.Surface() != nil {
			out = append(out, "surface of "+act.Name)
		}
	}
	sort.Strings(out)
	return out
}

// RuntimeState is the device-agnostic snapshot of an app's framework state
// that rides inside a CRIA checkpoint image.
type RuntimeState struct {
	Activities   []ActivitySnapshot
	SavedState   map[string]string
	Connectivity []string
	Receivers    []string // actions with live receivers (informational)
}

// ActivitySnapshot is one activity's portable state.
type ActivitySnapshot struct {
	Name  string
	State ActivityState
}

// RuntimeState captures the app's portable framework state.
func (a *App) RuntimeState() RuntimeState {
	st := RuntimeState{
		SavedState:   a.SavedState(),
		Connectivity: a.ConnectivityEvents(),
		Receivers:    a.ReceiverActions(),
	}
	for _, act := range a.Activities() {
		st.Activities = append(st.Activities, ActivitySnapshot{Name: act.Name, State: act.State()})
	}
	return st
}
