// Package apps models the paper's evaluation workloads: the eighteen top
// free Google Play apps of Table 3, each with a resource profile calibrated
// to the paper's Figure 15 scale (checkpoint transfers between ~1 and
// 14 MB, correlated with install size) and a workload driver that performs
// the table's described action through real (simulated) service calls —
// so checkpoint images and record logs are *produced by running the app*,
// not synthesized.
package apps

import (
	"fmt"
	"time"

	"flux/internal/aidl"
	"flux/internal/android"
	"flux/internal/device"
	"flux/internal/rsyncx"
	"flux/internal/services"
)

// App couples a Table 3 app with its workload driver.
type App struct {
	Spec     android.AppSpec
	APKMB    float64
	DataKB   int64
	Workload string // Table 3's workload description
	Run      func(s *Session) error
}

// Session is a running app plus typed clients to the services its workload
// touches.
type Session struct {
	Device *device.Device
	App    *android.App

	clients map[string]*aidl.Client
}

// NewSession wraps a running app.
func NewSession(dev *device.Device, app *android.App) *Session {
	return &Session{Device: dev, App: app, clients: make(map[string]*aidl.Client)}
}

func (s *Session) client(itf *aidl.Interface, name string) (*aidl.Client, error) {
	if c, ok := s.clients[name]; ok {
		return c, nil
	}
	c, err := aidl.NewClient(itf, s.App.Process().Binder(), name)
	if err != nil {
		return nil, err
	}
	s.clients[name] = c
	return c, nil
}

// Call invokes a service method from the app.
func (s *Session) Call(itf *aidl.Interface, service, method string, args ...any) error {
	c, err := s.client(itf, service)
	if err != nil {
		return err
	}
	_, err = c.Call(method, args...)
	return err
}

// Notify posts a notification.
func (s *Session) Notify(id int, payload string) error {
	return s.Call(services.NotificationInterface, "notification", "enqueueNotification", id, aidl.Object(payload))
}

// CancelNotification acknowledges a notification.
func (s *Session) CancelNotification(id int) error {
	return s.Call(services.NotificationInterface, "notification", "cancelNotification", id)
}

// SetAlarm schedules a PendingIntent after d.
func (s *Session) SetAlarm(d time.Duration, operation string) error {
	at := s.Device.Kernel.Clock().Now().Add(d).UnixMilli()
	return s.Call(services.AlarmInterface, "alarm", "set", 0, at, aidl.Object(operation))
}

// SetVolume sets a stream volume index.
func (s *Session) SetVolume(stream int32, index int) error {
	return s.Call(services.AudioInterface, "audio", "setStreamVolume", int(stream), index, 0)
}

// Clip places text on the clipboard.
func (s *Session) Clip(text string) error {
	return s.Call(services.ClipboardInterface, "clipboard", "setPrimaryClip", aidl.Object(text))
}

// Listen registers a broadcast receiver action with the AMS.
func (s *Session) Listen(action string) error {
	return s.Call(services.ActivityInterface, "activity", "registerReceiver", action)
}

// HoldWakeLock acquires a named wakelock.
func (s *Session) HoldWakeLock(tag string) error {
	return s.Call(services.PowerInterface, "power", "acquireWakeLock", tag, 1)
}

// WatchLocation subscribes to a location provider.
func (s *Session) WatchLocation(provider string) error {
	return s.Call(services.LocationInterface, "location", "requestLocationUpdates", provider, int64(60000), 50.0)
}

// UseSensors opens a sensor connection, enables the given sensors, and
// opens the event channel, storing the handle/fd in saved state the way a
// real app would keep them in memory.
func (s *Session) UseSensors(sensors ...int32) error {
	c, err := s.client(services.SensorInterface, "sensorservice")
	if err != nil {
		return err
	}
	reply, err := c.Call("createSensorEventConnection", s.App.Package())
	if err != nil {
		return err
	}
	h, err := reply.HandleAt(0)
	if err != nil {
		return err
	}
	conn := &aidl.Client{Itf: services.SensorConnectionInterface, Proc: s.App.Process().Binder(), Handle: h}
	for _, sensor := range sensors {
		if _, err := conn.Call("enableSensor", int(sensor), true, 20000); err != nil {
			return err
		}
	}
	ch, err := conn.Call("getSensorChannel")
	if err != nil {
		return err
	}
	fd, err := ch.FDAt(0)
	if err != nil {
		return err
	}
	s.App.PutSavedState("sensor.handle", fmt.Sprintf("%d", h))
	s.App.PutSavedState("sensor.fd", fmt.Sprintf("%d", fd))
	return nil
}

// Vibrate buzzes the device.
func (s *Session) Vibrate(ms int64) error {
	return s.Call(services.VibratorInterface, "vibrator", "vibrate", ms)
}

// Keyboard shows the soft keyboard.
func (s *Session) Keyboard() error {
	return s.Call(services.InputMethodInterface, "input_method", "showSoftInput", 0)
}

// Save puts a key in the saved-state bundle.
func (s *Session) Save(k, v string) { s.App.PutSavedState(k, v) }

// Catalog returns the eighteen Table 3 apps in the paper's order.
func Catalog() []App {
	return []App{
		{
			Spec: android.AppSpec{
				Package: "com.bible.reader", Label: "Bible", MainActivity: "ReaderActivity",
				Views:     []string{"toolbar", "verse-list"},
				HeapBytes: 10 << 20, HeapEntropy: 0.40, TextureCacheBytes: 2 << 20,
			},
			APKMB: 18, DataKB: 96, Workload: "View page of the Bible",
			Run: func(s *Session) error {
				s.Save("book", "john")
				s.Save("chapter", "3")
				if err := s.SetAlarm(12*time.Hour, "pi:verse-of-the-day"); err != nil {
					return err
				}
				return s.Clip("John 3:16")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.king.bubblewitch", Label: "Bubble Witch Saga", MainActivity: "GameActivity",
				Views:     []string{"gl-canvas", "hud"},
				HeapBytes: 26 << 20, HeapEntropy: 0.48, TextureCacheBytes: 24 << 20,
			},
			APKMB: 46, DataKB: 160, Workload: "Play witch-themed puzzle game",
			Run: func(s *Session) error {
				s.Save("level", "37")
				s.Save("score", "128400")
				if err := s.SetVolume(services.StreamMusic, 6); err != nil {
					return err
				}
				return s.SetAlarm(4*time.Hour, "pi:lives-refilled")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.king.candycrushsaga", Label: "Candy Crush Saga", MainActivity: "GameActivity",
				Views:     []string{"gl-canvas", "hud"},
				HeapBytes: 28 << 20, HeapEntropy: 0.46, TextureCacheBytes: 28 << 20,
			},
			APKMB: 43, DataKB: 180, Workload: "Play candy-themed puzzle game",
			Run: func(s *Session) error {
				s.Save("level", "181")
				s.Save("moves-left", "12")
				if err := s.Notify(10, "n:lives-full"); err != nil {
					return err
				}
				if err := s.CancelNotification(10); err != nil { // player saw it
					return err
				}
				return s.SetAlarm(2*time.Hour, "pi:candy-lives")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.ebay.mobile", Label: "eBay", MainActivity: "AuctionActivity",
				Views:     []string{"toolbar", "listing", "bid-bar"},
				HeapBytes: 11 << 20, HeapEntropy: 0.42, TextureCacheBytes: 4 << 20,
			},
			APKMB: 10, DataKB: 128, Workload: "View online auction",
			Run: func(s *Session) error {
				s.Save("item", "331234567890")
				if err := s.Listen("com.ebay.OUTBID"); err != nil {
					return err
				}
				if err := s.SetAlarm(30*time.Minute, "pi:auction-ending"); err != nil {
					return err
				}
				return s.Notify(3, "n:watching-item")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "io.github.flappybird", Label: "Flappy Bird", MainActivity: "GameActivity",
				Views:     []string{"gl-canvas"},
				HeapBytes: 4 << 20, HeapEntropy: 0.38, TextureCacheBytes: 3 << 20,
			},
			APKMB: 1, DataKB: 16, Workload: "Play obstacle game",
			Run: func(s *Session) error {
				s.Save("highscore", "42")
				return s.SetVolume(services.StreamMusic, 3)
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.surpax.ledflashlight", Label: "Surpax Flashlight", MainActivity: "TorchActivity",
				Views:     []string{"switch"},
				HeapBytes: 3 << 20, HeapEntropy: 0.35, TextureCacheBytes: 1 << 20,
			},
			APKMB: 2, DataKB: 8, Workload: "Use LED flashlight",
			Run: func(s *Session) error {
				if err := s.HoldWakeLock("torch"); err != nil {
					return err
				}
				return s.Call(services.CameraInterface, "camera", "connectDevice", 0) // flash sits on the camera HAL
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.groupon", Label: "GroupOn", MainActivity: "DealActivity",
				Views:     []string{"toolbar", "deal-card"},
				HeapBytes: 9 << 20, HeapEntropy: 0.41, TextureCacheBytes: 3 << 20,
			},
			APKMB: 8, DataKB: 72, Workload: "View discount offer",
			Run: func(s *Session) error {
				s.Save("deal", "spa-day-50off")
				if err := s.WatchLocation("network"); err != nil {
					return err
				}
				return s.Notify(7, "n:deal-nearby")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.instagram.android", Label: "Instagram", MainActivity: "FeedActivity",
				Views:     []string{"toolbar", "photo-grid"},
				HeapBytes: 15 << 20, HeapEntropy: 0.47, TextureCacheBytes: 10 << 20,
			},
			APKMB: 13, DataKB: 220, Workload: "Browse a friend's photos",
			Run: func(s *Session) error {
				s.Save("profile", "@friend")
				s.Save("scroll", "photo-24")
				return s.Listen("com.instagram.NEW_POST")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.netflix.mediaclient", Label: "Netflix", MainActivity: "BrowseActivity",
				Views:     []string{"billboard", "row-list"},
				HeapBytes: 13 << 20, HeapEntropy: 0.44, TextureCacheBytes: 8 << 20,
			},
			APKMB: 9, DataKB: 140, Workload: "Browse available movies",
			Run: func(s *Session) error {
				s.Save("row", "trending")
				s.Save("position", "movie-7")
				if err := s.SetVolume(services.StreamMusic, 11); err != nil {
					return err
				}
				return s.HoldWakeLock("playback")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.pinterest", Label: "Pinterest", MainActivity: "BoardActivity",
				Views:     []string{"masonry-grid"},
				HeapBytes: 14 << 20, HeapEntropy: 0.46, TextureCacheBytes: 9 << 20,
			},
			APKMB: 10, DataKB: 190, Workload: "Explore \"pinned\" items of interest",
			Run: func(s *Session) error {
				s.Save("board", "workshop-ideas")
				return s.Listen("com.pinterest.PIN_SAVED")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.snapchat.android", Label: "Snapchat", MainActivity: "CameraActivity",
				Views:     []string{"viewfinder", "caption"},
				HeapBytes: 10 << 20, HeapEntropy: 0.49, TextureCacheBytes: 6 << 20,
			},
			APKMB: 12, DataKB: 110, Workload: "Take photo and compose text",
			Run: func(s *Session) error {
				if err := s.Call(services.CameraInterface, "camera", "connectDevice", 0); err != nil {
					return err
				}
				// The camera must be released before migrating (devices are
				// fronted by services; the connection is app state).
				if err := s.Call(services.CameraInterface, "camera", "disconnectDevice", 0); err != nil {
					return err
				}
				if err := s.Keyboard(); err != nil {
					return err
				}
				s.Save("draft", "on my way!")
				return nil
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.skype.raider", Label: "Skype", MainActivity: "ContactsActivity",
				Views:     []string{"contact-list", "status-bar"},
				HeapBytes: 14 << 20, HeapEntropy: 0.43, TextureCacheBytes: 4 << 20,
			},
			APKMB: 22, DataKB: 150, Workload: "View contact status",
			Run: func(s *Session) error {
				s.Save("contact", "alice")
				if err := s.Listen("com.skype.INCOMING_CALL"); err != nil {
					return err
				}
				return s.Notify(2, "n:alice-online")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.twitter.android", Label: "Twitter", MainActivity: "TimelineActivity",
				Views:     []string{"toolbar", "tweet-list"},
				HeapBytes: 11 << 20, HeapEntropy: 0.45, TextureCacheBytes: 5 << 20,
			},
			APKMB: 11, DataKB: 170, Workload: "View a user's Tweets",
			Run: func(s *Session) error {
				s.Save("user", "@eurosys")
				s.Save("scroll", "tweet-19")
				if err := s.SetAlarm(15*time.Minute, "pi:poll-mentions"); err != nil {
					return err
				}
				return s.Listen("com.twitter.MENTION")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "co.vine.android", Label: "Vine", MainActivity: "FeedActivity",
				Views:     []string{"video-feed"},
				HeapBytes: 12 << 20, HeapEntropy: 0.47, TextureCacheBytes: 8 << 20,
			},
			APKMB: 14, DataKB: 130, Workload: "Browse a user's video feed",
			Run: func(s *Session) error {
				s.Save("feed", "@creator")
				if err := s.SetVolume(services.StreamMusic, 8); err != nil {
					return err
				}
				return s.HoldWakeLock("video")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.kiloo.subwaysurf", Label: "Subway Surfers", MainActivity: "GameActivity",
				Views:     []string{"gl-canvas", "hud"},
				HeapBytes: 24 << 20, HeapEntropy: 0.48, TextureCacheBytes: 30 << 20,
				PreserveEGLContext: true, // blocks migration (paper §4)
			},
			APKMB: 37, DataKB: 140, Workload: "Play fast-paced obstacle game",
			Run: func(s *Session) error {
				s.Save("run-distance", "4830")
				return s.UseSensors(services.SensorAccelerometer, services.SensorGyroscope)
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.facebook.katana", Label: "Facebook", MainActivity: "NewsFeedActivity",
				Views:     []string{"composer", "feed"},
				HeapBytes: 18 << 20, HeapEntropy: 0.46, TextureCacheBytes: 7 << 20,
				ExtraProcesses: 2, // multi-process: blocks migration (paper §4)
			},
			APKMB: 30, DataKB: 260, Workload: "Post comment on news feed",
			Run: func(s *Session) error {
				s.Save("composer", "great paper!")
				return s.Listen("com.facebook.NOTIFICATION")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "com.whatsapp", Label: "WhatsApp", MainActivity: "ChatActivity",
				Views:     []string{"chat-list", "composer"},
				HeapBytes: 8 << 20, HeapEntropy: 0.42, TextureCacheBytes: 3 << 20,
			},
			APKMB: 15, DataKB: 240, Workload: "Send text to friend",
			Run: func(s *Session) error {
				s.Save("chat", "bob")
				s.Save("draft", "see you at the talk")
				if err := s.Keyboard(); err != nil {
					return err
				}
				if err := s.Vibrate(120); err != nil {
					return err
				}
				return s.Notify(5, "n:bob-replied")
			},
		},
		{
			Spec: android.AppSpec{
				Package: "net.zedge.android", Label: "ZEDGE", MainActivity: "RingtoneActivity",
				Views:     []string{"ringtone-list"},
				HeapBytes: 8 << 20, HeapEntropy: 0.41, TextureCacheBytes: 2 << 20,
			},
			APKMB: 7, DataKB: 90, Workload: "Browse ringtones and select one",
			Run: func(s *Session) error {
				s.Save("selected", "classic-bell")
				if err := s.SetVolume(services.StreamRing, 12); err != nil {
					return err
				}
				return s.Call(services.AudioInterface, "audio", "setRingerMode", int(services.RingerNormal))
			},
		},
	}
}

// ByPackage returns the catalog app with the given package, or nil.
func ByPackage(pkg string) *App {
	for _, a := range Catalog() {
		if a.Spec.Package == pkg {
			cp := a
			return &cp
		}
	}
	return nil
}

// Migratable returns the sixteen catalog apps the paper migrates
// successfully (all but Facebook and Subway Surfers).
func Migratable() []App {
	var out []App
	for _, a := range Catalog() {
		if a.Spec.PreserveEGLContext || a.Spec.ExtraProcesses > 0 {
			continue
		}
		out = append(out, a)
	}
	return out
}

// Install records the app on a device with a synthesized APK and data tree.
func Install(dev *device.Device, a App) error {
	data := rsyncx.NewTree()
	data.Add(rsyncx.File{
		Path: "/data/data/" + a.Spec.Package + "/databases/app.db",
		Size: a.DataKB << 10, Hash: device.HashContent(a.Spec.Package, "db"), Entropy: 0.5,
	})
	data.Add(rsyncx.File{
		Path: "/data/data/" + a.Spec.Package + "/shared_prefs/prefs.xml",
		Size: 8 << 10, Hash: device.HashContent(a.Spec.Package, "prefs"), Entropy: 0.3,
	})
	sd := rsyncx.NewTree()
	sd.Add(rsyncx.File{
		Path: "/sdcard/Android/data/" + a.Spec.Package + "/cache.bin",
		Size: 64 << 10, Hash: device.HashContent(a.Spec.Package, "sdcache"), Entropy: 0.9,
	})
	return dev.InstallApp(&device.Install{
		Spec: a.Spec,
		APK: rsyncx.File{
			Path:    "/data/app/" + a.Spec.Package + ".apk",
			Size:    int64(a.APKMB * (1 << 20)),
			Hash:    device.HashContent(a.Spec.Package, "apk", "v1"),
			Entropy: 0.97, // APKs are already zip-compressed
		},
		DataDir: data,
		SDDir:   sd,
	})
}

// Launch installs (if needed), starts the app, and runs its workload.
func Launch(dev *device.Device, a App) (*Session, error) {
	if dev.Installed(a.Spec.Package) == nil {
		if err := Install(dev, a); err != nil {
			return nil, err
		}
	}
	app, err := dev.Runtime.Launch(a.Spec)
	if err != nil {
		return nil, err
	}
	s := NewSession(dev, app)
	if a.Run != nil {
		if err := a.Run(s); err != nil {
			return nil, fmt.Errorf("apps: %s workload: %w", a.Spec.Package, err)
		}
	}
	return s, nil
}
