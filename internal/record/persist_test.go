package record

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flux/internal/binder"
)

func sampleEntry(app, method string, seq int) *Entry {
	p := binder.NewParcel()
	p.WriteInt32(int32(seq))
	p.WriteString("payload")
	return &Entry{
		App: app, Service: "notification", Interface: "INotificationManager",
		Method: method, Code: 1, Handle: 2,
		At:   time.Unix(0, int64(seq)*1e9).UTC(),
		Data: p.Marshal(),
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append(sampleEntry("com.a", "enqueueNotification", i))
	}
	l.Append(sampleEntry("com.b", "cancelNotification", 9))

	path := filepath.Join(t.TempDir(), "record.flxl")
	if err := l.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got := len(back.AppEntries("com.a")); got != 5 {
		t.Errorf("com.a entries = %d", got)
	}
	if got := len(back.AppEntries("com.b")); got != 1 {
		t.Errorf("com.b entries = %d", got)
	}
	e := back.AppEntries("com.a")[2]
	if e.Method != "enqueueNotification" || e.Handle != 2 {
		t.Errorf("entry = %+v", e)
	}
	p, err := e.Parcel()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.Int32At(0); err != nil || got != 2 {
		t.Errorf("payload seq = %d, %v", got, err)
	}
}

func TestLoadFileRejectsCorruption(t *testing.T) {
	l := NewLog()
	l.Append(sampleEntry("com.a", "m", 1))
	path := filepath.Join(t.TempDir(), "record.flxl")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle: the checksum must catch it.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("LoadFile accepted corrupted file")
	}
}

// TestLoadFileRejectsJunk: LoadFile accepts only seglog streams. Junk, a missing file and a well-formed file in the retired
// whole-blob "FLXL" container (magic, version byte, per-app blobs,
// trailing CRC32) are all refused.
func TestLoadFileRejectsJunk(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string][]byte{"junk": []byte("not a log"), "v1.flxl": legacyV1File()} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Errorf("LoadFile accepted %s", name)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("LoadFile accepted missing file")
	}
}

// legacyV1File builds a well-formed file in the retired whole-blob
// "FLXL" container: magic, version byte, per-app blobs, trailing CRC32.
func legacyV1File() []byte {
	l := NewLog()
	l.Append(sampleEntry("com.a", "set", 1))
	l.Append(sampleEntry("com.b", "enqueueNotification", 2))
	v1 := append([]byte("FLXL"), 1)
	apps := l.Apps()
	v1 = binary.BigEndian.AppendUint32(v1, uint32(len(apps)))
	for _, app := range apps {
		blob := l.MarshalApp(app)
		v1 = binary.BigEndian.AppendUint32(v1, uint32(len(app)))
		v1 = append(v1, app...)
		v1 = binary.BigEndian.AppendUint32(v1, uint32(len(blob)))
		v1 = append(v1, blob...)
	}
	return binary.BigEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
}

// TestLoadFileReadsLegacyV1: a v1 "FLXL" file is read and refused by
// seglog's magic check — as a foreign stream, not an I/O failure — and
// LoadFile hands back no partial log.
func TestLoadFileReadsLegacyV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.flxl")
	if err := os.WriteFile(path, legacyV1File(), 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := LoadFile(path)
	if err == nil || !strings.Contains(err.Error(), "bad magic") || l != nil {
		t.Errorf("LoadFile(v1) = %v, %v; want nil log and a bad-magic error", l, err)
	}
}

// TestLoadFileRefusesTornTail: a file cut short anywhere in its last
// frames is refused, never read as a prefix.
func TestLoadFileRefusesTornTail(t *testing.T) {
	l := NewLog()
	for i := 0; i < 12; i++ {
		l.Append(sampleEntry("com.a", "set", i))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "record.flxg")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.flxg")
	for _, cut := range []int{1, 7, 100, 200} {
		if err := os.WriteFile(torn, data[:len(data)-cut], 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(torn); err == nil {
			t.Fatalf("LoadFile accepted a file missing its last %d bytes", cut)
		}
	}
}

// TestLoadFileKeepsSeq: a saved log whose pruning left gaps in the
// sequence numbers loads with the same numbers, and a later Append
// continues after the largest.
func TestLoadFileKeepsSeq(t *testing.T) {
	l := NewLog()
	for i, m := range []string{"keep", "drop", "keep", "drop", "keep", "keep"} {
		l.Append(sampleEntry("com.a", m, i))
	}
	l.PruneMatching("com.a", "INotificationManager", []string{"drop"}, func(*Entry) bool { return true })
	path := filepath.Join(t.TempDir(), "record.flxg")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, e := range back.AppEntries("com.a") {
		seqs = append(seqs, e.Seq)
	}
	if fmt.Sprint(seqs) != "[1 3 5 6]" {
		t.Fatalf("loaded sequence numbers %v, want [1 3 5 6]", seqs)
	}
	e := sampleEntry("com.a", "keep", 7)
	back.Append(e)
	if e.Seq != 7 {
		t.Fatalf("Append after LoadFile assigned seq %d, want 7", e.Seq)
	}
}

func TestSaveFileEmptyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.flxl")
	if err := NewLog().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("empty round trip has %d entries", back.Len())
	}
}

// TestAnchorVerifyRoundTrip: the home-side anchor over a MarshalApp
// blob verifies the honest blob, and any single flipped payload bit —
// or a re-decoded entry set — is caught.
func TestAnchorVerifyRoundTrip(t *testing.T) {
	l := NewLog()
	for i := 0; i < 20; i++ {
		l.Append(sampleEntry("com.a", "set", i))
	}
	blob := l.MarshalApp("com.a")
	anchor, err := AnchorWire(blob)
	if err != nil {
		t.Fatalf("AnchorWire: %v", err)
	}
	if err := VerifyAnchor(blob, anchor); err != nil {
		t.Fatalf("honest blob failed verification: %v", err)
	}
	// The decoded-entries path (what replay runs) verifies too — the
	// EntryWire fixed point holds.
	entries, err := UnmarshalEntries(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEntriesAnchor(entries, anchor); err != nil {
		t.Fatalf("decoded entries failed verification: %v", err)
	}
	// One flipped bit anywhere in the blob body fails (or fails to
	// parse — either way, never verifies clean).
	for off := 4; off < len(blob); off += 7 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x01
		if err := VerifyAnchor(mut, anchor); err == nil {
			t.Fatalf("flipped bit at offset %d verified clean", off)
		}
	}
	// Dropping the last entry fails the count check.
	short := NewLog()
	for _, e := range entries[:19] {
		short.Append(e)
	}
	if err := VerifyEntriesAnchor(UnmarshalMust(t, short.MarshalApp("com.a")), anchor); err == nil {
		t.Fatal("shortened log verified clean")
	}
}

func UnmarshalMust(t *testing.T, blob []byte) []*Entry {
	t.Helper()
	es, err := UnmarshalEntries(blob)
	if err != nil {
		t.Fatal(err)
	}
	return es
}

// TestEntryWireFixedPoint: EntryWire(decode(w)) == w for entries with
// nil, empty, and non-empty replies — the property anchor verification
// on the guest depends on.
func TestEntryWireFixedPoint(t *testing.T) {
	cases := []*Entry{
		sampleEntry("com.a", "m", 1), // nil reply
		func() *Entry { e := sampleEntry("com.a", "m", 2); e.Reply = []byte{}; return e }(),     // empty reply
		func() *Entry { e := sampleEntry("com.a", "m", 3); e.Reply = []byte{9, 8}; return e }(), // real reply
	}
	for i, e := range cases {
		w := EntryWire(e)
		back, consumed, err := decodeEntry(w)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if consumed != len(w) {
			t.Fatalf("case %d: consumed %d of %d", i, consumed, len(w))
		}
		if got := EntryWire(back); !bytes.Equal(got, w) {
			t.Fatalf("case %d: EntryWire not a fixed point", i)
		}
		if (e.Reply == nil) != (back.Reply == nil) {
			t.Fatalf("case %d: reply nilness drifted", i)
		}
	}
}
