package cria

// Exactness tests for the pooled gob codecs: Marshal writes what fresh
// gob encoders and flate writers write, the pooled decoders decode what
// fresh decoders decode, a failed decode never leaves a broken decoder
// in a pool, and nothing a decode returns aliases a pooled buffer.

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"reflect"
	"sync"
	"testing"
	"time"

	"flux/internal/apps"
	"flux/internal/device"
	"flux/internal/kernel"
)

// appImages checkpoints every migratable catalog app after its
// workload, each on a device of its own, with a record-log anchor.
func appImages(tb testing.TB) []*Image {
	tb.Helper()
	var imgs []*Image
	for _, a := range apps.Migratable() {
		dev, err := device.New(device.Nexus4("codec"))
		if err != nil {
			tb.Fatal(err)
		}
		s, err := apps.Launch(dev, a)
		if err != nil {
			tb.Fatal(err)
		}
		dev.Runtime.MoveToBackground(s.App)
		dev.Kernel.Clock().Advance(time.Second)
		if err := s.App.HandleTrimMemory(); err != nil {
			tb.Fatal(err)
		}
		if err := s.App.EGLUnload(); err != nil {
			tb.Fatal(err)
		}
		img, err := Checkpoint(s.App, Options{
			HomeDevice:      dev.Name(),
			ServiceManager:  dev.Kernel.Binder().ServiceManager(),
			Recorder:        dev.Recorder,
			Now:             dev.Kernel.Clock().Now,
			HomeVolumeSteps: dev.System.Audio.MaxSteps(),
			AnchorLog:       true,
			SystemPID:       dev.System.Proc().PID(),
		})
		if err != nil {
			tb.Fatalf("%s: %v", a.Spec.Package, err)
		}
		imgs = append(imgs, img)
	}
	return imgs
}

// wireCore is the image core Marshal encodes for img.
func wireCore(img *Image) imageCore {
	return imageCore{
		Pkg:             img.Pkg,
		Spec:            img.Spec,
		HomeDevice:      img.HomeDevice,
		CheckpointTime:  img.CheckpointTime,
		VPID:            img.VPID,
		FDs:             img.FDs,
		Handles:         img.Handles,
		Ashmem:          img.Ashmem,
		Runtime:         runtimeToWire(img.Runtime),
		RecordLog:       img.RecordLog,
		HomeVolumeSteps: img.HomeVolumeSteps,
		SegmentShards:   (len(img.Segments) + marshalShardSegs - 1) / marshalShardSegs,
	}
}

// freshGob is v's stream from a gob.Encoder of its own.
func freshGob(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// refMarshal is the reference Marshal must reproduce byte for byte: a
// fresh gob encoder per stream, framed by refContainer.
func refMarshal(tb testing.TB, img *Image) []byte {
	tb.Helper()
	core := wireCore(img)
	var shards [][]byte
	for lo := 0; lo < len(img.Segments); lo += marshalShardSegs {
		shard := img.Segments[lo:min(lo+marshalShardSegs, len(img.Segments))]
		shards = append(shards, freshGob(tb, &shard))
	}
	return refContainer(tb, img, freshGob(tb, &core), shards)
}

// refContainer frames a core stream and shard streams as Marshal does
// for img's revision, compressing each block with a flate writer of its
// own. A test hands it corrupt streams to build CRC-clean containers
// whose gob is damaged.
func refContainer(tb testing.TB, img *Image, coreRaw []byte, shards [][]byte) []byte {
	tb.Helper()
	var blocks [][]byte
	for lo := 0; lo < len(coreRaw); lo += marshalCoreBlockBytes {
		blocks = append(blocks, coreRaw[lo:min(lo+marshalCoreBlockBytes, len(coreRaw))])
	}
	var out []byte
	switch {
	case len(img.LogAnchor) > 0:
		out = append(out, marshalMagicV4...)
		var flags uint64
		if img.ContentDigests {
			flags = 1
		}
		out = binary.AppendUvarint(out, flags)
		out = binary.AppendUvarint(out, uint64(len(img.LogAnchor)))
		out = append(out, img.LogAnchor...)
	case img.ContentDigests:
		out = append(out, marshalMagicV3...)
	default:
		out = append(out, marshalMagic...)
	}
	out = binary.AppendUvarint(out, uint64(len(blocks)))
	out = binary.AppendUvarint(out, uint64(len(shards)))
	for _, raw := range append(blocks, shards...) {
		var comp bytes.Buffer
		w, err := flate.NewWriter(&comp, flate.BestSpeed)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := w.Write(raw); err != nil {
			tb.Fatal(err)
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
		out = binary.AppendUvarint(out, uint64(comp.Len()))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(comp.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
		if img.ContentDigests {
			sum := sha256.Sum256(raw)
			out = append(out, sum[:]...)
		}
		out = append(out, comp.Bytes()...)
	}
	return out
}

// revisions returns img in each container revision Marshal writes:
// FXC2, FXC3, FXC4 without and with digests.
func revisions(img *Image) map[string]*Image {
	out := map[string]*Image{}
	for name, form := range map[string]struct {
		digests bool
		anchor  bool
	}{"FXC2": {false, false}, "FXC3": {true, false}, "FXC4": {false, true}, "FXC4+digests": {true, true}} {
		cp := *img
		cp.ContentDigests = form.digests
		if !form.anchor {
			cp.LogAnchor = nil
		}
		out[name] = &cp
	}
	return out
}

// TestMarshalMatchesFreshEncoders: for the checkpoint of every
// migratable app, in every revision, Marshal writes the bytes fresh gob
// encoders and flate writers write. Each image is marshalled twice, so
// both a new encoder and a pooled one are compared.
func TestMarshalMatchesFreshEncoders(t *testing.T) {
	for _, img := range appImages(t) {
		if len(img.LogAnchor) == 0 {
			t.Fatalf("%s: checkpoint carries no anchor", img.Pkg)
		}
		for name, rev := range revisions(img) {
			want := refMarshal(t, rev)
			for i := 0; i < 2; i++ {
				got, err := rev.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %s, call %d: Marshal wrote %d bytes that differ from the fresh-encoder reference (%d bytes)",
						img.Pkg, name, i, len(got), len(want))
				}
			}
		}
	}
}

// TestPrimedEncoderWritesOnlyTheValue: a pooled encoder's Encode opens
// with a value message, and the definitions plus that message are a
// fresh encoder's stream.
func TestPrimedEncoderWritesOnlyTheValue(t *testing.T) {
	core := wireCore(appImages(t)[0])
	fresh := freshGob(t, &core)
	var e *gobEncoder
	// The race detector's sync.Pool drops a random quarter of the
	// objects put back, so try more than once.
	for i := 0; i < 20 && e == nil; i++ {
		var buf bytes.Buffer
		if err := coreCodec.encode(&buf, &core); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), fresh) {
			t.Fatal("pooled encode differs from a fresh encoder's stream")
		}
		e, _ = coreCodec.encs.Get().(*gobEncoder)
	}
	if e == nil {
		t.Fatal("no encoder came back to the pool")
	}
	var value bytes.Buffer
	e.buf = &value
	if err := e.enc.Encode(&core); err != nil {
		t.Fatal(err)
	}
	e.buf = nil
	if n := gobDefsLen(value.Bytes()); n != 0 {
		t.Fatalf("primed encoder sent %d bytes of type definitions again", n)
	}
	size, w := gobUint(value.Bytes())
	if w == 0 || int(size) != value.Len()-w {
		t.Fatalf("primed encoder wrote %d bytes, not one message", value.Len())
	}
	if id, iw := gobUint(value.Bytes()[w:]); iw == 0 || id&1 != 0 {
		t.Fatal("primed encoder's message does not open with a value's type id")
	}
	if got := append(bytes.Clone(coreCodec.defs), value.Bytes()...); !bytes.Equal(got, fresh) {
		t.Fatal("definitions plus the primed encoder's value differ from a fresh encoder's stream")
	}
}

// freshDecode is the reference decode: a gob.Decoder of its own over
// the whole stream, with the rule that nothing may follow the value.
func freshDecode(stream []byte, v any) error {
	r := bytes.NewReader(stream)
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return err
	}
	if r.Len() != 0 {
		return errGobTrailing
	}
	return nil
}

// sameValue reports whether two decoded values are equal:
// reflect.DeepEqual, or, for values holding NaNs, equal gob streams.
func sameValue(a, b any) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	var ab, bb bytes.Buffer
	return gob.NewEncoder(&ab).Encode(a) == nil && gob.NewEncoder(&bb).Encode(b) == nil &&
		bytes.Equal(ab.Bytes(), bb.Bytes())
}

// checkDecodeAgrees requires c's pooled decode and a fresh decoder to
// both fail on stream or both decode the same value; zero returns a
// pointer to a new zero value of c's type.
func checkDecodeAgrees(t *testing.T, c *gobCodec, zero func() any, stream []byte) {
	t.Helper()
	got, want := zero(), zero()
	gotErr := c.decode(stream, got)
	wantErr := freshDecode(stream, want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T: pooled decode returned %v, a fresh decoder %v", got, gotErr, wantErr)
	}
	if gotErr == nil && !sameValue(got, want) {
		t.Fatalf("%T: pooled decode %+v, fresh decoder %+v", got, got, want)
	}
}

// codecSeeds is a real core stream and a real shard stream.
func codecSeeds(tb testing.TB) (core, shard []byte) {
	tb.Helper()
	img := appImages(tb)[0]
	c := wireCore(img)
	segs := img.Segments[:min(marshalShardSegs, len(img.Segments))]
	return freshGob(tb, &c), freshGob(tb, &segs)
}

// FuzzDecodeGob: on any stream, the pooled decode of either top-level
// type agrees with a fresh decoder, and right after it the pristine
// streams still decode to their references.
func FuzzDecodeGob(f *testing.F) {
	coreStream, shardStream := codecSeeds(f)
	var coreRef imageCore
	var shardRef []kernel.MemSegment
	if err := freshDecode(coreStream, &coreRef); err != nil {
		f.Fatal(err)
	}
	if err := freshDecode(shardStream, &shardRef); err != nil {
		f.Fatal(err)
	}
	f.Add(coreStream)
	f.Add(shardStream)
	f.Add(append(bytes.Clone(coreStream), coreStream[gobDefsLen(coreStream):]...))
	f.Add(coreStream[:gobDefsLen(coreStream)])
	f.Add(shardStream[gobDefsLen(shardStream):])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		checkDecodeAgrees(t, coreCodec, func() any { return new(imageCore) }, stream)
		checkDecodeAgrees(t, shardCodec, func() any { return new([]kernel.MemSegment) }, stream)
		var core imageCore
		if err := coreCodec.decode(coreStream, &core); err != nil || !reflect.DeepEqual(core, coreRef) {
			t.Fatalf("pristine core stream after this input: %v", err)
		}
		var shard []kernel.MemSegment
		if err := shardCodec.decode(shardStream, &shard); err != nil || !reflect.DeepEqual(shard, shardRef) {
			t.Fatalf("pristine shard stream after this input: %v", err)
		}
	})
}

// appendGobUint appends x in gob's unsigned integer encoding.
func appendGobUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], x)
	i := 0
	for be[i] == 0 {
		i++
	}
	return append(append(b, byte(-int8(8-i))), be[i:]...)
}

// gobMessage frames body as one gob message.
func gobMessage(body []byte) []byte {
	return append(appendGobUint(nil, uint64(len(body))), body...)
}

// TestGobCorruptBlocksDoNotPoisonPool interleaves CRC-clean containers
// whose gob is damaged with a good one: every damaged one errors, and
// the good one decodes to the same image every time.
func TestGobCorruptBlocksDoNotPoisonPool(t *testing.T) {
	img := appImages(t)[0]
	img.LogAnchor = nil
	core := wireCore(img)
	coreStream := freshGob(t, &core)
	segs := img.Segments
	shardStream := freshGob(t, &segs)
	if len(segs) > marshalShardSegs {
		t.Fatalf("%d segments need more than one shard", len(segs))
	}
	defs := coreStream[:gobDefsLen(coreStream)]
	value := coreStream[len(defs):]
	size, w := gobUint(value)
	_, iw := gobUint(value[w:])
	undefined := appendGobUint(nil, 5000<<1) // type id 5000, defined nowhere
	typeID := value[w : w+iw]
	shardValue := shardStream[gobDefsLen(shardStream):]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	damaged := []struct {
		name        string
		core, shard []byte
	}{
		{"core value cut short", coreStream[:len(coreStream)-3], shardStream},
		{"core value's count past its end", cat(defs, appendGobUint(nil, size+1), value[w:]), shardStream},
		{"core field number out of range", cat(defs, gobMessage(cat(typeID, []byte{0x7f}))), shardStream},
		{"core value of an undefined type", cat(defs, gobMessage(cat(undefined, []byte{0x00}))), shardStream},
		{"core definitions only", defs, shardStream},
		{"core definitions twice", cat(defs, coreStream), shardStream},
		{"second core value", cat(coreStream, value), shardStream},
		{"core definitions after the value", cat(coreStream, defs), shardStream},
		{"shard stream as the core", shardStream, shardStream},
		{"second shard value", coreStream, cat(shardStream, shardValue)},
		{"shard value cut short", coreStream, shardStream[:len(shardStream)-2]},
	}
	good, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Unmarshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refContainer(t, img, coreStream, [][]byte{shardStream}), good) {
		t.Fatal("refContainer does not frame the good streams as Marshal does")
	}
	for round := 0; round < 8; round++ {
		for _, d := range damaged {
			if _, err := Unmarshal(refContainer(t, img, d.core, [][]byte{d.shard})); err == nil {
				t.Fatalf("round %d: %s decoded cleanly", round, d.name)
			}
			got, err := Unmarshal(good)
			if err != nil {
				t.Fatalf("round %d: good image failed after %s: %v", round, d.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: good image decoded differently after %s", round, d.name)
			}
		}
	}
}

// TestUnmarshalRefusesGobAfterValue: a CRC-clean block that holds a
// second gob value after its first is refused, in the core and in a
// shard.
func TestUnmarshalRefusesGobAfterValue(t *testing.T) {
	img := integImage()
	core := wireCore(img)
	coreStream := freshGob(t, &core)
	shardStream := freshGob(t, &img.Segments)
	for name, tc := range map[string]struct{ core, shard []byte }{
		"core":  {append(bytes.Clone(coreStream), coreStream[gobDefsLen(coreStream):]...), shardStream},
		"shard": {coreStream, append(bytes.Clone(shardStream), shardStream[gobDefsLen(shardStream):]...)},
	} {
		if _, err := Unmarshal(refContainer(t, img, tc.core, [][]byte{tc.shard})); !errors.Is(err, errGobTrailing) {
			t.Errorf("%s: second value: err = %v, want %v", name, err, errGobTrailing)
		}
	}
}

// TestUnmarshalDoesNotAlias: decoding other images, and writing into
// what they decoded to, leaves an image decoded earlier unchanged.
func TestUnmarshalDoesNotAlias(t *testing.T) {
	imgs := appImages(t)
	wires := make([][]byte, len(imgs))
	for i, img := range imgs {
		var err error
		if wires[i], err = img.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	first, err := Unmarshal(wires[0])
	if err != nil {
		t.Fatal(err)
	}
	snap, err := first.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	log := bytes.Clone(first.RecordLog)
	anchor := bytes.Clone(first.LogAnchor)
	for _, wire := range wires[1:] {
		other, err := Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		for i := range other.RecordLog {
			other.RecordLog[i] ^= 0xff
		}
		for i := range other.LogAnchor {
			other.LogAnchor[i] ^= 0xff
		}
	}
	if !bytes.Equal(first.RecordLog, log) || !bytes.Equal(first.LogAnchor, anchor) {
		t.Fatal("decoding other images changed the first image's record log or anchor")
	}
	again, err := first.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snap) {
		t.Fatal("decoding other images changed the first image")
	}
}

// TestCodecsConcurrent: goroutines marshalling and decoding different
// images at once through the shared pools each get their own image's
// bytes and values back.
func TestCodecsConcurrent(t *testing.T) {
	imgs := appImages(t)
	wires := make([][]byte, len(imgs))
	wants := make([]*Image, len(imgs))
	for i, img := range imgs {
		wires[i] = refMarshal(t, img)
		var err error
		if wants[i], err = Unmarshal(wires[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4*len(imgs); k++ {
				i := (g + k) % len(imgs)
				wire, err := imgs[i].Marshal()
				if err != nil || !bytes.Equal(wire, wires[i]) {
					t.Errorf("goroutine %d: %s marshalled differently (%v)", g, imgs[i].Pkg, err)
					return
				}
				got, err := Unmarshal(wire)
				if err != nil || !reflect.DeepEqual(got, wants[i]) {
					t.Errorf("goroutine %d: %s decoded differently (%v)", g, imgs[i].Pkg, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGobDefsLen: the definition run ends at the first value, at a
// message cut short and at a count gob cannot read.
func TestGobDefsLen(t *testing.T) {
	img := integImage()
	stream := freshGob(t, &img.Segments)
	n := gobDefsLen(stream)
	if n == 0 || n >= len(stream) {
		t.Fatalf("definitions run over %d of %d bytes", n, len(stream))
	}
	if got := gobDefsLen(stream[:n]); got != n {
		t.Errorf("definitions alone: %d, want %d", got, n)
	}
	if got := gobDefsLen(stream[:n-1]); got >= n {
		t.Errorf("last definition cut short: %d, want below %d", got, n)
	}
	if got := gobDefsLen(append([]byte{0x80}, stream...)); got != 0 {
		t.Errorf("unreadable count: %d, want 0", got)
	}
	if got := gobDefsLen(stream[n:]); got != 0 {
		t.Errorf("value first: %d, want 0", got)
	}
}
