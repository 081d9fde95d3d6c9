package record

import (
	"testing"
	"time"

	"flux/internal/aidl"
	"flux/internal/binder"
	"flux/internal/kernel"
)

const notifSrc = `
interface INotificationManager {
    @record
    void enqueueNotification(int id, in Notification notification);

    @record {
        @drop this, enqueueNotification;
        @if id;
    }
    void cancelNotification(int id);

    void getActiveCount();
}
`

const alarmSrc = `
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
}
`

type fixture struct {
	driver   *binder.Driver
	clock    *kernel.Clock
	rec      *Recorder
	app      *binder.Proc
	notif    *aidl.Client
	alarm    *aidl.Client
	notifItf *aidl.Interface
	alarmItf *aidl.Interface
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	f := &fixture{driver: binder.NewDriver(), clock: kernel.NewClock()}
	sys, err := f.driver.OpenProc(1, 1000, "system_server")
	if err != nil {
		t.Fatal(err)
	}
	f.app, err = f.driver.OpenProc(100, 10000, "com.example.app")
	if err != nil {
		t.Fatal(err)
	}

	f.notifItf = aidl.MustParse(notifSrc)
	f.alarmItf = aidl.MustParse(alarmSrc)
	nop := func(call *binder.Call, args aidl.Args) error { return nil }
	notifDisp := aidl.NewDispatcher(f.notifItf).
		Handle("enqueueNotification", nop).
		Handle("cancelNotification", nop).
		Handle("getActiveCount", nop)
	alarmDisp := aidl.NewDispatcher(f.alarmItf).
		Handle("set", nop).
		Handle("remove", nop)
	if _, err := binder.AddService(sys, "notification", f.notifItf.Name, notifDisp); err != nil {
		t.Fatal(err)
	}
	if _, err := binder.AddService(sys, "alarm", f.alarmItf.Name, alarmDisp); err != nil {
		t.Fatal(err)
	}

	f.rec = NewRecorder(NewLog(), Config{
		Now: f.clock.Now,
		PackageOf: func(pid int) (string, bool) {
			if pid == 100 {
				return "com.example.app", true
			}
			return "", false
		},
	})
	f.rec.RegisterInterface("notification", f.notifItf)
	f.rec.RegisterInterface("alarm", f.alarmItf)
	f.driver.SetInterposer(f.rec)

	if f.notif, err = aidl.NewClient(f.notifItf, f.app, "notification"); err != nil {
		t.Fatal(err)
	}
	if f.alarm, err = aidl.NewClient(f.alarmItf, f.app, "alarm"); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) call(t testing.TB, c *aidl.Client, method string, args ...any) {
	t.Helper()
	if _, err := c.Call(method, args...); err != nil {
		t.Fatalf("%s: %v", method, err)
	}
}

func (f *fixture) methods(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, e := range f.rec.Log().AppEntries("com.example.app") {
		out = append(out, e.Method)
	}
	return out
}

func TestRecordDecoratedCall(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.notif, "enqueueNotification", 1, aidl.Object("n:hello"))
	got := f.methods(t)
	if len(got) != 1 || got[0] != "enqueueNotification" {
		t.Errorf("log = %v", got)
	}
	e := f.rec.Log().AppEntries("com.example.app")[0]
	if e.Service != "notification" || e.Interface != "INotificationManager" {
		t.Errorf("entry = %+v", e)
	}
	if e.At != kernel.Epoch {
		t.Errorf("timestamp = %v", e.At)
	}
}

func TestUndecoratedMethodNotRecorded(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.notif, "getActiveCount")
	if got := f.methods(t); len(got) != 0 {
		t.Errorf("log = %v, want empty", got)
	}
}

func TestCancelAnnihilatesEnqueue(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.notif, "enqueueNotification", 1, aidl.Object("n:a"))
	f.call(t, f.notif, "enqueueNotification", 2, aidl.Object("n:b"))
	f.call(t, f.notif, "cancelNotification", 1)
	got := f.methods(t)
	if len(got) != 1 || got[0] != "enqueueNotification" {
		t.Fatalf("log = %v, want only notification 2's enqueue", got)
	}
	p, err := f.rec.Log().AppEntries("com.example.app")[0].Parcel()
	if err != nil {
		t.Fatal(err)
	}
	if id, err := p.Int32At(0); err != nil || id != 2 {
		t.Errorf("surviving enqueue id = %d, %v; want 2", id, err)
	}
}

func TestCancelWithoutMatchIsRecorded(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.notif, "cancelNotification", 9)
	got := f.methods(t)
	if len(got) != 1 || got[0] != "cancelNotification" {
		t.Errorf("log = %v, want lone cancel recorded", got)
	}
}

func TestRepeatedCancelDropsPreviousCancel(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.notif, "cancelNotification", 9)
	f.call(t, f.notif, "cancelNotification", 9)
	if got := f.methods(t); len(got) != 1 {
		t.Errorf("log = %v, want single cancel", got)
	}
}

func TestAlarmSetReplacementKeepsNewest(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.alarm, "set", 0, int64(1000), aidl.Object("pi:sync"))
	f.call(t, f.alarm, "set", 0, int64(2000), aidl.Object("pi:sync"))
	got := f.methods(t)
	if len(got) != 1 || got[0] != "set" {
		t.Fatalf("log = %v, want single set", got)
	}
	p, _ := f.rec.Log().AppEntries("com.example.app")[0].Parcel()
	if at, err := p.Int64At(1); err != nil || at != 2000 {
		t.Errorf("surviving alarm time = %d, %v; want 2000 (replacement)", at, err)
	}
}

func TestAlarmRemoveAnnihilatesSet(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.alarm, "set", 0, int64(1000), aidl.Object("pi:sync"))
	f.call(t, f.alarm, "set", 0, int64(1500), aidl.Object("pi:other"))
	f.call(t, f.alarm, "remove", aidl.Object("pi:sync"))
	got := f.methods(t)
	if len(got) != 1 || got[0] != "set" {
		t.Fatalf("log = %v, want only pi:other's set", got)
	}
}

func TestDifferentSignaturesDoNotCollide(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.alarm, "set", 0, int64(1000), aidl.Object("pi:a"))
	f.call(t, f.alarm, "set", 0, int64(2000), aidl.Object("pi:b"))
	if got := f.methods(t); len(got) != 2 {
		t.Errorf("log = %v, want both alarms", got)
	}
}

func TestUnresolvablePIDNotRecorded(t *testing.T) {
	f := newFixture(t)
	other, err := f.driver.OpenProc(200, 1000, "daemon")
	if err != nil {
		t.Fatal(err)
	}
	c, err := aidl.NewClient(f.notifItf, other, "notification")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("enqueueNotification", 1, aidl.Object("x")); err != nil {
		t.Fatal(err)
	}
	if got := f.rec.Log().Len(); got != 0 {
		t.Errorf("log len = %d, want 0", got)
	}
}

func TestPauseResume(t *testing.T) {
	f := newFixture(t)
	f.rec.Pause("com.example.app")
	f.call(t, f.notif, "enqueueNotification", 1, aidl.Object("x"))
	if got := f.rec.Log().Len(); got != 0 {
		t.Errorf("paused recording still logged %d entries", got)
	}
	f.rec.Resume("com.example.app")
	f.call(t, f.notif, "enqueueNotification", 2, aidl.Object("y"))
	if got := f.rec.Log().Len(); got != 1 {
		t.Errorf("log len after resume = %d, want 1", got)
	}
}

func TestFullRecordAblation(t *testing.T) {
	f := newFixture(t)
	f.rec.SetFullRecord("INotificationManager", true)
	f.call(t, f.notif, "getActiveCount") // undecorated, recorded in full mode
	f.call(t, f.notif, "enqueueNotification", 1, aidl.Object("x"))
	f.call(t, f.notif, "cancelNotification", 1) // no pruning in full mode
	if got := f.methods(t); len(got) != 3 {
		t.Errorf("full-record log = %v, want 3 entries", got)
	}
}

func TestStatsCountObservedAndRecorded(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.notif, "enqueueNotification", 1, aidl.Object("x"))
	f.call(t, f.notif, "cancelNotification", 1)
	st := f.rec.Stats()
	if st.Observed != 2 {
		t.Errorf("observed = %d, want 2", st.Observed)
	}
	if st.Recorded != 1 {
		// the enqueue was appended; the cancel annihilated it and was
		// suppressed before ever reaching the log
		t.Errorf("recorded = %d, want 1", st.Recorded)
	}
	if st.DroppedByRule != 1 {
		// the cancel itself never reached the log
		t.Errorf("dropped-by-rule = %d, want 1 (the suppressed cancel)", st.DroppedByRule)
	}
	if st.Pruned != 1 {
		t.Errorf("pruned = %d, want 1 (the annihilated enqueue)", st.Pruned)
	}
	if got := f.rec.Log().DroppedTotal(); got != 1 {
		t.Errorf("dropped = %d, want 1 (the annihilated enqueue)", got)
	}
}

func TestLogMarshalRoundTrip(t *testing.T) {
	f := newFixture(t)
	f.clock.Advance(90 * time.Second)
	f.call(t, f.notif, "enqueueNotification", 7, aidl.Object("n:persist"))
	f.call(t, f.alarm, "set", 1, int64(555), aidl.Object("pi:x"))

	blob := f.rec.Log().MarshalApp("com.example.app")
	entries, err := UnmarshalEntries(blob)
	if err != nil {
		t.Fatalf("UnmarshalEntries: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("round-tripped %d entries", len(entries))
	}
	e := entries[0]
	if e.Method != "enqueueNotification" || e.Service != "notification" {
		t.Errorf("entry 0 = %+v", e)
	}
	if !e.At.Equal(kernel.Epoch.Add(90 * time.Second)) {
		t.Errorf("entry 0 time = %v", e.At)
	}
	p, err := e.Parcel()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.Int32At(0); err != nil || got != 7 {
		t.Errorf("entry 0 id = %d, %v", got, err)
	}
	if e.Reply == nil {
		t.Error("entry 0 lost reply parcel")
	}
}

func TestLogUnmarshalTruncated(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.notif, "enqueueNotification", 7, aidl.Object("x"))
	blob := f.rec.Log().MarshalApp("com.example.app")
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := UnmarshalEntries(blob[:cut]); err == nil {
			t.Errorf("UnmarshalEntries accepted truncation at %d", cut)
		}
	}
}

func TestDropAppClearsOnlyThatApp(t *testing.T) {
	l := NewLog()
	l.Append(&Entry{App: "a", Method: "m"})
	l.Append(&Entry{App: "b", Method: "m"})
	if got := l.DropApp("a"); got != 1 {
		t.Errorf("DropApp removed %d", got)
	}
	if l.Len() != 1 {
		t.Errorf("log len = %d", l.Len())
	}
	if got := l.AppEntries("b"); len(got) != 1 {
		t.Errorf("b entries = %v", got)
	}
}

func TestDropAppDoesNotInflateDroppedTotal(t *testing.T) {
	// DroppedTotal is documented as the savings Selective Record's pruning
	// buys; post-migration cleanup (DropApp) must not count toward it.
	f := newFixture(t)
	f.call(t, f.notif, "enqueueNotification", 1, aidl.Object("n:a"))
	f.call(t, f.notif, "cancelNotification", 1) // prune: annihilates the enqueue
	f.call(t, f.notif, "enqueueNotification", 2, aidl.Object("n:b"))
	f.call(t, f.alarm, "set", 0, int64(1000), aidl.Object("pi:x"))
	if got := f.rec.Log().DroppedTotal(); got != 1 {
		t.Fatalf("DroppedTotal before cleanup = %d, want 1", got)
	}
	if got := f.rec.Log().DropApp("com.example.app"); got != 2 {
		t.Fatalf("DropApp removed %d, want 2", got)
	}
	if got := f.rec.Log().DroppedTotal(); got != 1 {
		t.Errorf("DroppedTotal after DropApp = %d, want 1 (cleanup must not inflate pruning savings)", got)
	}
	if got := f.rec.Log().CleanupDropped(); got != 2 {
		t.Errorf("CleanupDropped = %d, want 2", got)
	}
}

func TestAppEntriesSequenceOrderInterleaved(t *testing.T) {
	// Entries of one app must come back in sequence order even when other
	// apps' appends interleave with them across shards.
	l := NewLog()
	for i := 0; i < 50; i++ {
		l.Append(&Entry{App: "a", Method: "m"})
		l.Append(&Entry{App: "b", Method: "m"})
	}
	for _, app := range []string{"a", "b"} {
		got := l.AppEntries(app)
		if len(got) != 50 {
			t.Fatalf("%s: %d entries, want 50", app, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Seq <= got[i-1].Seq {
				t.Fatalf("%s: out-of-order seqs %d then %d", app, got[i-1].Seq, got[i].Seq)
			}
		}
	}
}

func TestSizeBytesMatchesEntrySizes(t *testing.T) {
	f := newFixture(t)
	f.call(t, f.notif, "enqueueNotification", 7, aidl.Object("payload"))
	want := 0
	for _, e := range f.rec.Log().AppEntries("com.example.app") {
		want += e.Size()
	}
	if got := f.rec.Log().SizeBytes("com.example.app"); got != want || got == 0 {
		t.Errorf("SizeBytes = %d, want %d (nonzero)", got, want)
	}
}
