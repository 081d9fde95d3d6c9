package services

import (
	"fmt"
	"math"
	"sync"

	"flux/internal/aidl"
	"flux/internal/binder"
)

// AudioAIDL is the decorated AudioService subset. setStreamVolume carries a
// replay proxy because a raw index is device-specific: the proxy rescales it
// by the home/guest volume-step ratio (paper §3.2's volume example).
const AudioAIDL = `
interface IAudioService {
    @record {
        @drop this, adjustStreamVolume;
        @if streamType;
        @replayproxy flux.recordreplay.Proxies.audioSetStreamVolume;
    }
    void setStreamVolume(int streamType, int index, int flags);

    @record {
        @drop this;
        @if streamType;
        @replayproxy flux.recordreplay.Proxies.audioSetStreamVolume;
    }
    void adjustStreamVolume(int streamType, int direction, int flags);

    @record {
        @drop this;
    }
    void setRingerMode(int ringerMode);

    @record {
        @drop this;
    }
    void setSpeakerphoneOn(boolean on);

    int getStreamVolume(int streamType);
    int getStreamMaxVolume(int streamType);
}
`

// AudioInterface is the compiled IAudioService.
var AudioInterface = aidl.MustParse(AudioAIDL)

// Audio stream types.
const (
	StreamVoiceCall int32 = 0
	StreamRing      int32 = 2
	StreamMusic     int32 = 3
	StreamAlarm     int32 = 4
)

// Ringer modes.
const (
	RingerSilent  int32 = 0
	RingerVibrate int32 = 1
	RingerNormal  int32 = 2
)

// AudioService owns volume state. Volumes are stored as integer indexes in
// the device's step range; AppState normalizes to fractions so home and
// guest states compare equal after the proxy rescales.
type AudioService struct {
	sys      *System
	maxSteps int32

	mu         sync.Mutex
	volumes    map[int32]int32  // stream → index (device range)
	setBy      map[int32]string // stream → last app that set it
	ringerMode int32
	ringerBy   string
	speaker    bool
	speakerBy  string
}

func newAudioService(s *System, steps int) *AudioService {
	a := &AudioService{
		sys:      s,
		maxSteps: int32(steps),
		volumes:  make(map[int32]int32),
		setBy:    make(map[int32]string),
	}
	a.ringerMode = RingerNormal
	disp := aidl.NewDispatcher(AudioInterface).
		Handle("setStreamVolume", a.setStreamVolume).
		Handle("adjustStreamVolume", a.adjustStreamVolume).
		Handle("setRingerMode", a.setRingerMode).
		Handle("setSpeakerphoneOn", a.setSpeakerphoneOn).
		Handle("getStreamVolume", a.getStreamVolume).
		Handle("getStreamMaxVolume", a.getStreamMaxVolume)
	s.register("audio", AudioInterface, disp, a)
	return a
}

// MaxSteps returns the device's volume step count — the quantity the
// adaptive replay proxy needs from both sides.
func (a *AudioService) MaxSteps() int32 { return a.maxSteps }

func (a *AudioService) setStreamVolume(call *binder.Call, args aidl.Args) error {
	pkg, err := a.sys.callerPkg(call)
	if err != nil {
		return err
	}
	stream := args.Int(0)
	index := args.Int(1)
	a.SetStreamVolume(pkg, stream, index)
	return nil
}

// SetStreamVolume clamps and applies a volume index on behalf of pkg.
// Exported for the replay proxy.
func (a *AudioService) SetStreamVolume(pkg string, stream, index int32) {
	if index < 0 {
		index = 0
	}
	if index > a.maxSteps {
		index = a.maxSteps
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.volumes[stream] = index
	a.setBy[stream] = pkg
}

func (a *AudioService) adjustStreamVolume(call *binder.Call, args aidl.Args) error {
	pkg, err := a.sys.callerPkg(call)
	if err != nil {
		return err
	}
	stream := args.Int(0)
	direction := args.Int(1)
	a.mu.Lock()
	cur := a.volumes[stream]
	a.mu.Unlock()
	a.SetStreamVolume(pkg, stream, cur+direction)
	return nil
}

func (a *AudioService) setRingerMode(call *binder.Call, args aidl.Args) error {
	pkg, err := a.sys.callerPkg(call)
	if err != nil {
		return err
	}
	mode := args.Int(0)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ringerMode = mode
	a.ringerBy = pkg
	return nil
}

func (a *AudioService) setSpeakerphoneOn(call *binder.Call, args aidl.Args) error {
	pkg, err := a.sys.callerPkg(call)
	if err != nil {
		return err
	}
	on := args.Bool(0)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.speaker = on
	a.speakerBy = pkg
	return nil
}

func (a *AudioService) getStreamVolume(call *binder.Call, args aidl.Args) error {
	stream := args.Int(0)
	a.mu.Lock()
	defer a.mu.Unlock()
	call.Reply.WriteInt32(a.volumes[stream])
	return nil
}

func (a *AudioService) getStreamMaxVolume(call *binder.Call, args aidl.Args) error {
	call.Reply.WriteInt32(a.maxSteps)
	return nil
}

// StreamVolume returns the current index for a stream.
func (a *AudioService) StreamVolume(stream int32) int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.volumes[stream]
}

// RingerMode returns the device ringer mode.
func (a *AudioService) RingerMode() int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ringerMode
}

// AppState implements AppStater: volumes the app set, normalized to a
// device-independent 5-level loudness bucket. Rescaling between step
// grids (15 on the phone, 30 on the tablets) rounds to the guest grid, so
// exact fractions cannot survive a 30→15 trip; a 0.2-wide bucket absorbs
// that rounding for every index on either grid (half-up rounding on both
// the rescale and the bucket keeps boundary values on the same side).
func (a *AudioService) AppState(pkg string) map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string)
	for stream, by := range a.setBy {
		if by != pkg {
			continue
		}
		frac := float64(a.volumes[stream]) / float64(a.maxSteps)
		bucket := math.Floor(frac*5+0.5) / 5
		out[fmt.Sprintf("volume.%d", stream)] = fmt.Sprintf("%.1f", bucket)
	}
	if a.ringerBy == pkg {
		out["ringer"] = fmt.Sprintf("%d", a.ringerMode)
	}
	if a.speakerBy == pkg {
		out["speaker"] = fmt.Sprintf("%t", a.speaker)
	}
	return out
}

// ForgetApp implements AppStater. Volume is a device-global setting, so the
// app's attribution is dropped but the level persists, as on real Android.
func (a *AudioService) ForgetApp(pkg string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for stream, by := range a.setBy {
		if by == pkg {
			delete(a.setBy, stream)
		}
	}
	if a.ringerBy == pkg {
		a.ringerBy = ""
	}
	if a.speakerBy == pkg {
		a.speakerBy = ""
	}
}
