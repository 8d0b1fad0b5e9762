package btree

import "repro/internal/pagestore"

// ViewAt returns a read-only view of the tree as of WAL position snap,
// descending from root (the caller's recorded root as of the snapshot — the
// live root may have split away from it since). Its cursors resolve every
// page through pagestore.Store.FixAt, which serves the live frame when it is
// visible at the snapshot and the page's retained version-chain image
// otherwise — so the view observes exactly the committed tree shape at its
// LSN, no matter how far the live tree has moved on. The version layer
// handles visibility; the read latch a cursor holds handles atomicity, as on
// the live tree. Views are cheap handles: create one per snapshot
// transaction and share it freely across its reads.
func (t *Tree) ViewAt(root pagestore.PageID, snap uint64) *View {
	return &View{t: t, root: root, snap: snap, atSnap: true}
}
