package lock

import "sync/atomic"

// headIndex is a per-stripe resource→lockHead index in the shape of
// apache-lucy's LockFreeRegistry: atomic bucket chains, insert by a fully
// initialized publish, reads that never block. All mutations happen under
// the stripe mutex, and so do all of today's reads; the atomics would let a
// reader without the mutex follow the chains safely, at worst missing an
// entry that a grow or an unlink moves.
//
// Slots are never reused for a different resource, so a stale reader cannot
// be redirected to the wrong head (the ABA that makes pooled heads unsound —
// lock heads are therefore never pooled either).
type headSlot struct {
	hash uint64
	res  Resource
	head *lockHead
	next atomic.Pointer[headSlot]
}

type headBuckets struct {
	mask  uint64
	slots []atomic.Pointer[headSlot]
}

type headIndex struct {
	buckets atomic.Pointer[headBuckets]
	count   int // live slots; guarded by the stripe mutex
}

// bucketHash derives the bits that pick a bucket from a resource's FNV-1a
// hash by Fibonacci hashing. The raw high bits cannot serve: labels that
// differ only in their last byte, by d, have hashes that differ by about
// d × (2⁴⁰ + 0x1b3), so one parent's children crowd into a few buckets. The
// multiply carries every hash bit into bits 32 and up. A variable only so a
// test can make every resource of a stripe share one bucket.
var bucketHash = func(hash uint64) uint64 { return hash * 0x9E3779B97F4A7C15 >> 32 }

// bucketOf picks the bucket. The stripe was picked by the hash's low bits
// (Manager.PartitionOf), which are constant within one index.
func (b *headBuckets) bucketOf(hash uint64) *atomic.Pointer[headSlot] {
	return &b.slots[bucketHash(hash)&b.mask]
}

func (ix *headIndex) init() {
	b := &headBuckets{mask: 7, slots: make([]atomic.Pointer[headSlot], 8)}
	ix.buckets.Store(b)
}

// lookup resolves res (nil if absent). Exact under the stripe mutex.
func (ix *headIndex) lookup(res Resource, hash uint64) *lockHead {
	b := ix.buckets.Load()
	for sl := b.bucketOf(hash).Load(); sl != nil; sl = sl.next.Load() {
		if sl.hash == hash && sl.res == res {
			return sl.head
		}
	}
	return nil
}

// insertLocked publishes a new head. Caller holds the stripe mutex and has
// checked res is absent.
func (ix *headIndex) insertLocked(res Resource, hash uint64, h *lockHead) {
	b := ix.buckets.Load()
	if ix.count >= 2*len(b.slots) {
		b = ix.growLocked(b)
	}
	bucket := b.bucketOf(hash)
	sl := &headSlot{hash: hash, res: res, head: h}
	sl.next.Store(bucket.Load())
	bucket.Store(sl) // publish: the slot is fully initialized before this
	ix.count++
}

// growLocked doubles the bucket array twice over. Existing slots are left
// untouched (readers mid-walk on the old array keep a complete, merely
// stale view); the new array gets fresh slot objects.
func (ix *headIndex) growLocked(old *headBuckets) *headBuckets {
	nb := &headBuckets{mask: uint64(len(old.slots))*4 - 1,
		slots: make([]atomic.Pointer[headSlot], len(old.slots)*4)}
	for i := range old.slots {
		for sl := old.slots[i].Load(); sl != nil; sl = sl.next.Load() {
			bucket := nb.bucketOf(sl.hash)
			ns := &headSlot{hash: sl.hash, res: sl.res, head: sl.head}
			ns.next.Store(bucket.Load())
			bucket.Store(ns)
		}
	}
	ix.buckets.Store(nb)
	return nb
}

// walk visits every (resource, head) pair. Exact under the stripe mutex.
func (ix *headIndex) walk(f func(res Resource, h *lockHead)) {
	b := ix.buckets.Load()
	for i := range b.slots {
		for sl := b.slots[i].Load(); sl != nil; sl = sl.next.Load() {
			f(sl.res, sl.head)
		}
	}
}
