package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// Document metadata page. Page 0 of the backend holds the roots of the
// three B*-trees, the SPLID gap, and the vocabulary, so a document stored
// on a file backend can be reopened. Like every page, it starts with the
// pagestore recovery header; the metadata proper begins at metaBase.
// Version 2 is exactly the version-1 layout shifted by that header.
//
// Layout (offsets relative to metaBase):
//
//	off  0: magic "XTCD"
//	off  4: version uint16
//	off  6: dist uint32
//	off 10: doc root, elem root, ids root (uint32 each)
//	off 22: vocabulary blob length uint16, then the blob
const (
	metaMagic   = "XTCD"
	metaVersion = 2

	metaBase    = pagestore.PageHeaderSize
	metaBlobOff = metaBase + 24
)

var errBadMeta = errors.New("storage: invalid metadata page")

// Flush persists dirty pages and the metadata page.
func (d *Document) Flush() error {
	if err := d.writeMeta(); err != nil {
		return err
	}
	return d.store.Flush()
}

func (d *Document) writeMeta() error {
	f, err := d.store.Fix(0)
	if err != nil {
		return err
	}
	defer d.store.Unfix(f)
	f.MarkDirty()
	p := f.Data()[metaBase:]
	copy(p[0:4], metaMagic)
	binary.BigEndian.PutUint16(p[4:6], metaVersion)
	binary.BigEndian.PutUint32(p[6:10], d.alloc.Dist)
	binary.BigEndian.PutUint32(p[10:14], uint32(d.doc.Root()))
	binary.BigEndian.PutUint32(p[14:18], uint32(d.elem.Root()))
	binary.BigEndian.PutUint32(p[18:22], uint32(d.ids.Root()))
	blob := d.vocab.Encode()
	if len(blob) > pagestore.PageSize-metaBlobOff {
		return fmt.Errorf("storage: vocabulary (%d bytes) exceeds the metadata page", len(blob))
	}
	binary.BigEndian.PutUint16(p[22:24], uint16(len(blob)))
	copy(p[24:], blob)
	return nil
}

// Open attaches to a document previously created on backend (and flushed
// via Flush or Close).
func Open(backend pagestore.Backend, opts Options) (*Document, error) {
	store := pagestore.OpenConfig(backend, opts.Config)
	f, err := store.Fix(0)
	if err != nil {
		return nil, fmt.Errorf("storage: reading metadata: %w", err)
	}
	p := f.Data()[metaBase:]
	if string(p[0:4]) != metaMagic {
		store.Unfix(f)
		return nil, fmt.Errorf("%w: bad magic", errBadMeta)
	}
	if v := binary.BigEndian.Uint16(p[4:6]); v != metaVersion {
		store.Unfix(f)
		return nil, fmt.Errorf("%w: version %d", errBadMeta, v)
	}
	dist := binary.BigEndian.Uint32(p[6:10])
	docRoot := pagestore.PageID(binary.BigEndian.Uint32(p[10:14]))
	elemRoot := pagestore.PageID(binary.BigEndian.Uint32(p[14:18]))
	idsRoot := pagestore.PageID(binary.BigEndian.Uint32(p[18:22]))
	blobLen := int(binary.BigEndian.Uint16(p[22:24]))
	if metaBlobOff+blobLen > pagestore.PageSize {
		store.Unfix(f)
		return nil, fmt.Errorf("%w: vocabulary length %d", errBadMeta, blobLen)
	}
	vocab, err := xmlmodel.DecodeVocabulary(append([]byte(nil), p[24:24+blobLen]...))
	store.Unfix(f)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadMeta, err)
	}

	docTree, err := btree.Open(store, docRoot)
	if err != nil {
		return nil, err
	}
	elemTree, err := btree.Open(store, elemRoot)
	if err != nil {
		return nil, err
	}
	idsTree, err := btree.Open(store, idsRoot)
	if err != nil {
		return nil, err
	}
	d := &Document{
		store: store,
		doc:   docTree,
		elem:  elemTree,
		ids:   idsTree,
		vocab: vocab,
		alloc: splid.Allocator{Dist: dist},
		size:  docTree.Len(),
	}
	d.reader = liveReader(docTree, elemTree, idsTree, vocab)
	return d, nil
}
