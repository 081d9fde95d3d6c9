package record

import (
	"fmt"
	"os"

	"flux/internal/atomicio"
	"flux/internal/seglog"
)

// This file gives the call log durable storage — the role SQLite plays in
// the paper's prototype. The log persists as a seglog stream (DESIGN.md
// §5j): one frame per entry in global sequence order, sealed segments
// with Merkle roots, and a trailing anchor, so an on-disk log is
// crash-recoverable (RecoverFile truncates a torn tail to the last
// complete frame) and tamper-evident (LoadFile recomputes every hash).

// AnchorWire builds a marshalled seglog anchor over a MarshalApp blob:
// the per-entry wire records become chain leaves, the tail is sealed,
// and the anchor (chain head + segment Merkle roots) covers every
// entry. The home device calls this at checkpoint time; the anchor
// rides in the CRIA image and VerifyAnchor checks the blob against it
// on the guest.
func AnchorWire(blob []byte) ([]byte, error) {
	wires, err := SplitEntries(blob)
	if err != nil {
		return nil, err
	}
	sl := seglog.New(seglog.DefaultSegmentLeaves)
	for _, w := range wires {
		sl.Append(w)
	}
	sl.SealTail()
	return sl.Anchor().Marshal(), nil
}

// VerifyAnchor checks that a MarshalApp blob is exactly the log an
// anchor commits to — same entries, same bytes, same order, nothing
// added or removed. Any single flipped bit fails.
func VerifyAnchor(blob, anchorWire []byte) error {
	wires, err := SplitEntries(blob)
	if err != nil {
		return err
	}
	return verifyWiresAnchor(wires, anchorWire)
}

// VerifyEntriesAnchor re-serializes already-decoded entries and checks
// them against an anchor. The replay engine runs this as defense in
// depth immediately before issuing transactions: whatever entries it
// was handed must still be the anchored log.
func VerifyEntriesAnchor(entries []*Entry, anchorWire []byte) error {
	size := 0
	for _, e := range entries {
		size += e.Size()
	}
	buf := make([]byte, 0, size)
	wires := make([][]byte, len(entries))
	for i, e := range entries {
		start := len(buf)
		buf = appendEntryWire(buf, e)
		wires[i] = buf[start:]
	}
	return verifyWiresAnchor(wires, anchorWire)
}

func verifyWiresAnchor(wires [][]byte, anchorWire []byte) error {
	a, err := seglog.ParseAnchor(anchorWire)
	if err != nil {
		return err
	}
	// Checkpoint anchors are cut over the sealed whole log, so the count
	// must match exactly: entries appended after the anchor would be
	// unverified and are refused.
	if uint64(len(wires)) != a.Leaves {
		return fmt.Errorf("%w: anchor covers %d entries, log has %d", seglog.ErrTampered, a.Leaves, len(wires))
	}
	return seglog.VerifyPayloads(wires, a)
}

// SaveFile writes the whole log (all apps) to path atomically and
// durably, as a seglog stream over a consistent point-in-time snapshot.
func (l *Log) SaveFile(path string) error {
	sl := seglog.New(seglog.DefaultSegmentLeaves)
	for _, e := range l.Snapshot() {
		sl.Append(EntryWire(e))
	}
	sl.SealTail()
	return atomicio.WriteFile(path, sl.Marshal(), 0o600)
}

// LoadFile reads a log file written by SaveFile into a fresh Log,
// strictly: every CRC, hash-chain link, segment root, and anchor must
// verify.
func LoadFile(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sl, err := seglog.Load(data, seglog.DefaultSegmentLeaves)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	return logFromSeglog(sl)
}

// RecoverFile reads a possibly crash-torn log file tolerantly: a torn
// tail is dropped and reported, semantic damage (tampering) still
// errors.
func RecoverFile(path string) (*Log, seglog.Recovery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, seglog.Recovery{}, err
	}
	sl, rec, err := seglog.Recover(data, seglog.DefaultSegmentLeaves)
	if err != nil {
		return nil, rec, fmt.Errorf("record: %w", err)
	}
	l, err := logFromSeglog(sl)
	return l, rec, err
}

// logFromSeglog rebuilds a Log from a decoded stream. Pruned leaves
// (payload gone, hash retained) are skipped — their content was
// @drop-compacted away while their place in the chain survives.
func logFromSeglog(sl *seglog.Log) (*Log, error) {
	l := NewLog()
	for i, payload := range sl.Payloads() {
		if payload == nil {
			continue
		}
		e, consumed, err := decodeEntry(payload)
		if err != nil {
			return nil, fmt.Errorf("record: log entry %d: %w", i, err)
		}
		if consumed != len(payload) {
			return nil, fmt.Errorf("record: log entry %d: %d trailing bytes", i, len(payload)-consumed)
		}
		l.Append(e)
	}
	return l, nil
}
