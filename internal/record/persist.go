package record

import (
	"fmt"
	"os"

	"flux/internal/atomicio"
	"flux/internal/seglog"
)

// This file gives the call log durable storage — the role SQLite plays in
// the paper's prototype. The log persists as a seglog stream (DESIGN.md
// §5j): one frame per entry in global sequence order, a seal with a
// Merkle root after every segment, and a trailing anchor. SaveFile
// writes it atomically, so no torn file reaches disk, and LoadFile
// recomputes every hash, so a tampered one is refused.

// AnchorWire computes the marshalled seglog anchor over a MarshalApp
// blob: the per-entry wire records are the chain leaves, and the anchor
// (chain head + segment Merkle roots) covers every entry. The home
// device calls this at checkpoint time; the anchor rides in the CRIA
// image and VerifyAnchor checks the blob against it on the guest.
func AnchorWire(blob []byte) ([]byte, error) {
	wires, err := SplitEntries(blob)
	if err != nil {
		return nil, err
	}
	return seglog.AnchorOf(wires).Marshal(), nil
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

// verifyWiresAnchor checks wire records against a marshalled anchor.
// Checkpoint anchors cover the whole log, so seglog.Verify requires
// the exact count: entries appended after the anchor are refused.
func verifyWiresAnchor(wires [][]byte, anchorWire []byte) error {
	a, err := seglog.ParseAnchor(anchorWire)
	if err != nil {
		return err
	}
	return seglog.Verify(wires, a)
}

// SaveFile writes the whole log (all apps) to path atomically and
// durably, as a seglog stream over a consistent point-in-time snapshot.
func (l *Log) SaveFile(path string) error {
	entries := l.Snapshot()
	wires := make([][]byte, len(entries))
	for i, e := range entries {
		wires[i] = EntryWire(e)
	}
	return atomicio.WriteFile(path, seglog.Marshal(wires), 0o600)
}

// LoadFile reads a log file written by SaveFile into a fresh Log,
// strictly: every CRC, hash-chain link, segment root, and anchor must
// verify. Entries keep their saved sequence numbers, and later Appends
// continue after the largest.
func LoadFile(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	wires, err := seglog.Load(data)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	l := NewLog()
	for i, w := range wires {
		e, consumed, err := decodeEntry(w)
		if err != nil {
			return nil, fmt.Errorf("record: log entry %d: %w", i, err)
		}
		if consumed != len(w) {
			return nil, fmt.Errorf("record: log entry %d: %d trailing bytes", i, len(w)-consumed)
		}
		l.restore(e)
	}
	return l, nil
}
