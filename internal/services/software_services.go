package services

import (
	"fmt"

	"flux/internal/aidl"
	"flux/internal/android"
	"flux/internal/binder"
)

// This file holds the software services of Table 2 that are not large
// enough for their own file: ActivityManagerService, ClipboardService,
// KeyguardService, NsdService, TextServicesManagerService, and
// UiModeManagerService.

// ---------------------------------------------------------------------------
// ActivityManagerService

// ActivityAIDL is the decorated IActivityManager subset: receiver
// registration is the app-specific state that must survive migration;
// broadcastIntent is transient and deliberately undecorated.
const ActivityAIDL = `
interface IActivityManager {
    @record {
        @drop this;
        @if action;
    }
    void registerReceiver(String action);

    @record {
        @drop this, registerReceiver;
        @if action;
    }
    void unregisterReceiver(String action);

    void broadcastIntent(String action, in Intent intent);
    void moveTaskToBack(int task);
    int getMemoryClass();
    void setProcessImportance(int importance);
}
`

// ActivityInterface is the compiled IActivityManager.
var ActivityInterface = aidl.MustParse(ActivityAIDL)

// ActivityManagerService tracks receiver registrations and relays
// broadcasts into the framework runtime.
type ActivityManagerService struct {
	sys       *System
	receivers appSet
}

func newActivityManagerService(s *System) *ActivityManagerService {
	a := &ActivityManagerService{sys: s}
	nop := func(call *binder.Call, args aidl.Args) error { return nil }
	disp := aidl.NewDispatcher(ActivityInterface).
		Handle("registerReceiver", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			a.receivers.add(pkg, args.String(0))
			return nil
		}).
		Handle("unregisterReceiver", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			a.receivers.remove(pkg, args.String(0))
			return nil
		}).
		Handle("broadcastIntent", func(call *binder.Call, args aidl.Args) error {
			action := args.String(0)
			payload := args.String(1)
			s.cfg.Broadcast(android.Intent{Action: action, Extras: map[string]string{"payload": payload}})
			return nil
		}).
		Handle("moveTaskToBack", nop).
		Handle("getMemoryClass", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteInt32(192)
			return nil
		}).
		Handle("setProcessImportance", nop)
	s.register("activity", ActivityInterface, disp, a)
	return a
}

func (a *ActivityManagerService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	if v := a.receivers.render(pkg); v != "" {
		out["receivers"] = v
	}
	return out
}
func (a *ActivityManagerService) ForgetApp(pkg string) { a.receivers.forget(pkg) }

// RegisteredActions returns the actions pkg has registered for.
func (a *ActivityManagerService) RegisteredActions(pkg string) []string {
	return a.receivers.members(pkg)
}

// ---------------------------------------------------------------------------
// ClipboardService

// ClipboardAIDL is the decorated IClipboard subset.
const ClipboardAIDL = `
interface IClipboard {
    @record {
        @drop this;
    }
    void setPrimaryClip(in ClipData clip);

    String getPrimaryClip();
    boolean hasPrimaryClip();
}
`

var ClipboardInterface = aidl.MustParse(ClipboardAIDL)

// ClipboardService holds the global clip and its owner.
type ClipboardService struct {
	sys   *System
	clip  string
	owner string
}

func newClipboardService(s *System) *ClipboardService {
	c := &ClipboardService{sys: s}
	disp := aidl.NewDispatcher(ClipboardInterface).
		Handle("setPrimaryClip", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			c.clip = args.String(0)
			c.owner = pkg
			return nil
		}).
		Handle("getPrimaryClip", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteString(c.clip)
			return nil
		}).
		Handle("hasPrimaryClip", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteBool(c.clip != "")
			return nil
		})
	s.register("clipboard", ClipboardInterface, disp, c)
	return c
}

func (c *ClipboardService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	if c.owner == pkg && c.clip != "" {
		out["clip"] = c.clip
	}
	return out
}
func (c *ClipboardService) ForgetApp(pkg string) {
	if c.owner == pkg {
		c.owner = ""
	}
}

// Clip returns the global clipboard contents.
func (c *ClipboardService) Clip() string { return c.clip }

// ---------------------------------------------------------------------------
// KeyguardService

// KeyguardAIDL is the decorated IKeyguardService subset.
const KeyguardAIDL = `
interface IKeyguardService {
    @record {
        @drop this;
        @if tag;
    }
    void disableKeyguard(String tag);

    @record {
        @drop this, disableKeyguard;
        @if tag;
    }
    void reenableKeyguard(String tag);

    boolean isKeyguardLocked();
}
`

var KeyguardInterface = aidl.MustParse(KeyguardAIDL)

// KeyguardService tracks keyguard-disable tokens per app.
type KeyguardService struct {
	sys    *System
	tokens appSet
}

func newKeyguardService(s *System) *KeyguardService {
	k := &KeyguardService{sys: s}
	disp := aidl.NewDispatcher(KeyguardInterface).
		Handle("disableKeyguard", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			k.tokens.add(pkg, args.String(0))
			return nil
		}).
		Handle("reenableKeyguard", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			k.tokens.remove(pkg, args.String(0))
			return nil
		}).
		Handle("isKeyguardLocked", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteBool(false)
			return nil
		})
	s.register("keyguard", KeyguardInterface, disp, k)
	return k
}

func (k *KeyguardService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	if v := k.tokens.render(pkg); v != "" {
		out["disabled"] = v
	}
	return out
}
func (k *KeyguardService) ForgetApp(pkg string) { k.tokens.forget(pkg) }

// ---------------------------------------------------------------------------
// NsdService

// NsdAIDL is the decorated INsdManager (2 methods in Table 2).
const NsdAIDL = `
interface INsdManager {
    @record {
        @drop this;
        @if name;
    }
    void registerService(String name);

    @record {
        @drop this, registerService;
        @if name;
    }
    void unregisterService(String name);
}
`

var NsdInterface = aidl.MustParse(NsdAIDL)

// NsdService tracks network-service-discovery registrations.
type NsdService struct {
	sys  *System
	regs appSet
}

func newNsdService(s *System) *NsdService {
	n := &NsdService{sys: s}
	disp := aidl.NewDispatcher(NsdInterface).
		Handle("registerService", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			n.regs.add(pkg, args.String(0))
			return nil
		}).
		Handle("unregisterService", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			n.regs.remove(pkg, args.String(0))
			return nil
		})
	s.register("servicediscovery", NsdInterface, disp, n)
	return n
}

func (n *NsdService) AppState(pkg string) map[string]string {
	out := make(map[string]string)
	if v := n.regs.render(pkg); v != "" {
		out["registered"] = v
	}
	return out
}
func (n *NsdService) ForgetApp(pkg string) { n.regs.forget(pkg) }

// ---------------------------------------------------------------------------
// TextServicesManagerService

// TextServicesAIDL is the decorated ITextServicesManager subset.
const TextServicesAIDL = `
interface ITextServicesManager {
    @record {
        @drop this;
    }
    void setCurrentSpellChecker(String id);

    String getCurrentSpellChecker();
    boolean isSpellCheckerEnabled();
}
`

var TextServicesInterface = aidl.MustParse(TextServicesAIDL)

// TextServicesManagerService tracks the selected spell checker.
type TextServicesManagerService struct {
	sys *System
	kv  appKV
}

func newTextServicesManagerService(s *System) *TextServicesManagerService {
	t := &TextServicesManagerService{sys: s}
	disp := aidl.NewDispatcher(TextServicesInterface).
		Handle("setCurrentSpellChecker", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			t.kv.set(pkg, "spellchecker", args.String(0))
			return nil
		}).
		Handle("getCurrentSpellChecker", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteString("com.android.spellchecker")
			return nil
		}).
		Handle("isSpellCheckerEnabled", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteBool(true)
			return nil
		})
	s.register("textservices", TextServicesInterface, disp, t)
	return t
}

func (t *TextServicesManagerService) AppState(pkg string) map[string]string {
	return t.kv.snapshot(pkg)
}
func (t *TextServicesManagerService) ForgetApp(pkg string) { t.kv.forget(pkg) }

// ---------------------------------------------------------------------------
// UiModeManagerService

// UiModeAIDL is the decorated IUiModeManager (5 methods in Table 2).
const UiModeAIDL = `
interface IUiModeManager {
    @record {
        @drop this;
    }
    void setNightMode(int mode);

    @record {
        @drop this, disableCarMode;
    }
    void enableCarMode(int flags);

    @record {
        @drop this, enableCarMode;
    }
    void disableCarMode(int flags);

    int getCurrentModeType();
    int getNightMode();
}
`

var UiModeInterface = aidl.MustParse(UiModeAIDL)

// UiModeManagerService tracks night/car mode requests.
type UiModeManagerService struct {
	sys *System
	kv  appKV
}

func newUiModeManagerService(s *System) *UiModeManagerService {
	u := &UiModeManagerService{sys: s}
	disp := aidl.NewDispatcher(UiModeInterface).
		Handle("setNightMode", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			u.kv.set(pkg, "night", fmt.Sprintf("%d", args.Int(0)))
			return nil
		}).
		Handle("enableCarMode", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			u.kv.set(pkg, "car", "on")
			return nil
		}).
		Handle("disableCarMode", func(call *binder.Call, args aidl.Args) error {
			pkg, err := s.callerPkg(call)
			if err != nil {
				return err
			}
			u.kv.del(pkg, "car")
			return nil
		}).
		Handle("getCurrentModeType", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteInt32(1) // UI_MODE_TYPE_NORMAL
			return nil
		}).
		Handle("getNightMode", func(call *binder.Call, args aidl.Args) error {
			call.Reply.WriteInt32(0)
			return nil
		})
	s.register("uimode", UiModeInterface, disp, u)
	return u
}

func (u *UiModeManagerService) AppState(pkg string) map[string]string {
	return u.kv.snapshot(pkg)
}
func (u *UiModeManagerService) ForgetApp(pkg string) { u.kv.forget(pkg) }
