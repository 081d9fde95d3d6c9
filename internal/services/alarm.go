package services

import (
	"fmt"
	"sync"
	"time"

	"flux/internal/aidl"
	"flux/internal/android"
	"flux/internal/binder"
)

// AlarmAIDL is the decorated interface from paper Figure 9 with one
// documented extension: the paper's figure gives remove the drop list
// `this`, while its prose requires that a remove also invalidate the
// matching set ("calls with the same operation argument to set and remove
// should be dropped"). The drop list here is `this, set`, which implements
// the prose. setTime and setTimeZone round out the paper's 4-method count.
const AlarmAIDL = `
interface IAlarmManager {
    @record {
        @drop this;
        @if operation;
        @replayproxy flux.recordreplay.Proxies.alarmMgrSet;
    }
    void set(int type, long triggerAtTime, in PendingIntent operation);

    @record {
        @drop this, set;
        @if operation;
    }
    void remove(in PendingIntent operation);

    void setTime(long millis);
    void setTimeZone(String zone);
}
`

// AlarmInterface is the compiled IAlarmManager.
var AlarmInterface = aidl.MustParse(AlarmAIDL)

// Alarm types, matching AlarmManager's constants in spirit.
const (
	AlarmRTC       int32 = 0
	AlarmRTCWakeup int32 = 1
	AlarmElapsed   int32 = 2
)

// AlarmManagerService schedules app tasks on the kernel alarm driver and
// broadcasts the PendingIntent when they fire.
type AlarmManagerService struct {
	sys *System

	mu     sync.Mutex
	alarms map[string]map[string]*appAlarm // pkg → operation → alarm
}

type appAlarm struct {
	typ       int32
	triggerAt int64 // virtual unix milliseconds
	kernelID  int
}

func newAlarmManagerService(s *System) *AlarmManagerService {
	a := &AlarmManagerService{sys: s, alarms: make(map[string]map[string]*appAlarm)}
	disp := aidl.NewDispatcher(AlarmInterface).
		Handle("set", a.set).
		Handle("remove", a.remove).
		Handle("setTime", func(call *binder.Call, args aidl.Args) error { return nil }).
		Handle("setTimeZone", func(call *binder.Call, args aidl.Args) error { return nil })
	s.register("alarm", AlarmInterface, disp, a)
	return a
}

func (a *AlarmManagerService) set(call *binder.Call, args aidl.Args) error {
	pkg, err := a.sys.callerPkg(call)
	if err != nil {
		return err
	}
	typ := args.Int(0)
	triggerAt := args.Long(1)
	operation := args.String(2)
	a.Set(pkg, typ, triggerAt, operation)
	return nil
}

// Set schedules (or replaces) an alarm for pkg. Exported for the adaptive
// replay proxy, which re-sets surviving alarms on the guest device.
func (a *AlarmManagerService) Set(pkg string, typ int32, triggerAtMillis int64, operation string) {
	a.mu.Lock()
	if a.alarms[pkg] == nil {
		a.alarms[pkg] = make(map[string]*appAlarm)
	}
	if old, ok := a.alarms[pkg][operation]; ok {
		a.sys.Kernel().Alarms.Cancel(old.kernelID)
	}
	al := &appAlarm{typ: typ, triggerAt: triggerAtMillis}
	a.alarms[pkg][operation] = al
	a.mu.Unlock()

	when := time.UnixMilli(triggerAtMillis).UTC()
	al.kernelID = a.sys.Kernel().Alarms.Set(when, func(now time.Time) {
		a.fire(pkg, operation)
	})
}

func (a *AlarmManagerService) fire(pkg, operation string) {
	a.mu.Lock()
	if cur, ok := a.alarms[pkg][operation]; !ok || cur == nil {
		a.mu.Unlock()
		return
	}
	delete(a.alarms[pkg], operation)
	a.mu.Unlock()
	a.sys.cfg.Broadcast(android.Intent{
		Action: android.ActionAlarmFired,
		Pkg:    pkg,
		Extras: map[string]string{"operation": operation},
	})
}

func (a *AlarmManagerService) remove(call *binder.Call, args aidl.Args) error {
	pkg, err := a.sys.callerPkg(call)
	if err != nil {
		return err
	}
	operation := args.String(0)
	a.Remove(pkg, operation)
	return nil
}

// Remove cancels an app's alarm by PendingIntent.
func (a *AlarmManagerService) Remove(pkg, operation string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if al, ok := a.alarms[pkg][operation]; ok {
		a.sys.Kernel().Alarms.Cancel(al.kernelID)
		delete(a.alarms[pkg], operation)
	}
}

// Pending returns the app's scheduled operations with trigger times.
func (a *AlarmManagerService) Pending(pkg string) map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.alarms[pkg]))
	for op, al := range a.alarms[pkg] {
		out[op] = al.triggerAt
	}
	return out
}

// AppState implements AppStater.
func (a *AlarmManagerService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	for op, at := range a.Pending(pkg) {
		out["alarm."+op] = fmt.Sprintf("%d", at)
	}
	return out
}

// ForgetApp implements AppStater, cancelling kernel timers so a migrated
// app's alarms do not fire on the home device.
func (a *AlarmManagerService) ForgetApp(pkg string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, al := range a.alarms[pkg] {
		a.sys.Kernel().Alarms.Cancel(al.kernelID)
	}
	delete(a.alarms, pkg)
}
