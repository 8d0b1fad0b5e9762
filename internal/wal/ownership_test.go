package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// ownedPayload is record i's payload: distinct per record, 10 to 300 bytes.
func ownedPayload(i int) []byte {
	head := fmt.Sprintf("record-%06d:", i)
	return append([]byte(head), bytes.Repeat([]byte{byte(i), byte(i >> 8)}, i%146)...)
}

// scanOwned checks that the log holds exactly records 0..n-1, byte for byte.
func scanOwned(t *testing.T, what string, l *Log, n int) {
	t.Helper()
	i := 0
	err := l.Scan(func(r Record) error {
		if want := ownedPayload(i); r.Type != RecOp || !bytes.Equal(r.Payload, want) {
			return fmt.Errorf("record %d (LSN %d, type %d) carries %q, want %q", i, r.LSN, r.Type, r.Payload, want)
		}
		i++
		return nil
	})
	if err != nil || i != n {
		t.Fatalf("%s: %d of %d records read back: %v", what, i, n, err)
	}
}

// TestRecycledBuffersOwnNothing is the ownership oracle of the log's two
// pending buffers. The flusher borrows a buffer for one writeBatch and hands
// it back to be appended into again; the moment it does, the test fills the
// buffer's whole capacity with garbage. If anything still needed those bytes
// — a segment store keeping the slice it was handed, a buffer given up before
// its batch was written — records come back damaged: from the live log, from
// a crashed copy of the memory store, and from a reopened directory.
func TestRecycledBuffersOwnNothing(t *testing.T) {
	const records = 12000
	run := func(t *testing.T, store SegmentStore, reopen func() SegmentStore) {
		cfg := Config{SegmentSize: 8 << 10}
		l, err := Open(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		handed := 0
		l.mu.Lock()
		l.handedBack = func(buf []byte) {
			handed++
			for i := range buf {
				buf[i] = 0xDB
			}
		}
		l.mu.Unlock()
		for i := 0; i < records; i++ {
			lsn, err := l.Append(RecOp, uint64(i%5+1), ownedPayload(i))
			if err != nil {
				t.Fatal(err)
			}
			if i%7 == 0 || i == records-1 { // in between, appends race the flusher's writes
				if err := l.Force(lsn); err != nil {
					t.Fatal(err)
				}
			}
		}
		l.mu.Lock()
		batches := handed
		l.mu.Unlock()
		if st := l.Stats(); batches < 1000 || st.Rotations < 100 {
			t.Fatalf("%d buffers handed back over %d rotations: the run is too tame to prove anything", batches, st.Rotations)
		}
		scanOwned(t, "live log", l, records)
		if mem, ok := store.(*MemSegmentStore); ok {
			crashed := mem.Clone()
			crashed.Crash()
			cl, err := Open(crashed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scanOwned(t, "cloned and crashed store", cl, records)
			cl.Close()
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		rl, err := Open(reopen(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rl.Close()
		scanOwned(t, "reopened store", rl, records)
	}
	t.Run("memory", func(t *testing.T) {
		store := NewMemSegmentStore()
		run(t, store, func() SegmentStore { return store })
	})
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		open := func() SegmentStore {
			store, err := NewFileSegmentStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			return store
		}
		run(t, open(), open)
	})
}
