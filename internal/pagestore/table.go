package pagestore

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// pageTable maps a PageID to the frame holding it, without a lock: a Fix hit
// reads it with plain atomic loads, and the miss path (under the pool's miss
// latch) inserts and removes entries by CAS.
//
// It is a directory of chunks of frame slots indexed by the page ID itself.
// Chunk 0 holds pages [0, 2^tableChunkBits); chunk k >= 1 holds the
// 2^(tableChunkBits+k-1) pages from 2^(tableChunkBits+k-1) up, so each chunk
// is as large as all chunks before it together and a directory of
// 33-tableChunkBits slots, embedded in the Store, covers every PageID
// without ever growing. A chunk is allocated the first time one of its pages
// is mapped, and never moves or shrinks afterwards.
type pageTable struct {
	chunks [33 - tableChunkBits]atomic.Pointer[[]atomic.Pointer[Frame]]
}

// tableChunkBits sizes chunk 0 (256 slots, 2 KiB); a 1 568-page document
// uses chunks 0-3, 16 KiB.
const tableChunkBits = 8

// tableSlot returns the chunk of id and its offset in that chunk, and the
// chunk's length. The offset is id with its top bit cleared: in chunk k >= 1
// every ID has bit tableChunkBits+k-1 as its highest.
func tableSlot(id PageID) (k int, off uint32, size uint32) {
	k = bits.Len32(uint32(id) >> tableChunkBits)
	size = 1 << (tableChunkBits + max(k, 1) - 1)
	return k, uint32(id) & (size - 1), size
}

// lookup returns the frame mapped to id, or nil. The frame may be remapped
// by the time the caller pins it: Fix checks Frame.id after the pin.
func (t *pageTable) lookup(id PageID) *Frame {
	k, off, _ := tableSlot(id)
	if c := t.chunks[k].Load(); c != nil {
		return (*c)[off].Load()
	}
	return nil
}

// insert maps id to f. The caller holds the miss latch and has seen id
// unmapped under it, so the slot CAS cannot lose; a directory CAS lost to
// another inserter adopts the winner's chunk.
func (t *pageTable) insert(id PageID, f *Frame) {
	k, off, size := tableSlot(id)
	c := t.chunks[k].Load()
	if c == nil {
		fresh := make([]atomic.Pointer[Frame], size)
		if t.chunks[k].CompareAndSwap(nil, &fresh) {
			c = &fresh
		} else {
			c = t.chunks[k].Load()
		}
	}
	if !(*c)[off].CompareAndSwap(nil, f) {
		panic(fmt.Sprintf("pagestore: page %d mapped twice", id))
	}
}

// remove unmaps id from f. The caller holds the miss latch.
func (t *pageTable) remove(id PageID, f *Frame) {
	k, off, _ := tableSlot(id)
	if c := t.chunks[k].Load(); c == nil || !(*c)[off].CompareAndSwap(f, nil) {
		panic(fmt.Sprintf("pagestore: page %d unmapped from a frame that does not hold it", id))
	}
}
