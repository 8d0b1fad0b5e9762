package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/tamix"
	"repro/internal/tx"
)

// FuzzOpenHostileDocument overwrites 1–8 bytes of one page of a generated
// document past the page header and then either re-stamps the page's
// checksum (the bytes reach the decoders) or zeroes it. Opening the store,
// verifying it and running a short serial TaMix batch on it must each
// return, with an error or without one, inside a time bound: a panic or a
// hang fails.
func FuzzOpenHostileDocument(f *testing.F) {
	backend := pagestore.NewMemBackend()
	doc, cat, err := tamix.GenerateBib(backend, tamix.Scaled(0.01))
	if err != nil {
		f.Fatal(err)
	}
	if err := doc.Close(); err != nil {
		f.Fatal(err)
	}
	pages := int(backend.NumPages())
	for page := 0; page < pages; page++ {
		f.Add(uint16(page), uint16(0), []byte{0xFF}, true)
		f.Add(uint16(page), uint16(2), []byte{0xFF, 0xFF}, true)
		f.Add(uint16(page), uint16(40), []byte{0x7F, 0x00, 0x01}, true)
		f.Add(uint16(page), uint16(1000), []byte{0x01}, false)
	}
	f.Fuzz(func(t *testing.T, page, off uint16, patch []byte, restamp bool) {
		if len(patch) == 0 || len(patch) > 8 {
			return
		}
		store := backend.Clone()
		id := pagestore.PageID(int(page) % pages)
		p := make([]byte, pagestore.PageSize)
		if err := store.ReadPage(id, p); err != nil {
			t.Fatal(err)
		}
		at := pagestore.PageHeaderSize + int(off)%(pagestore.PageSize-pagestore.PageHeaderSize-len(patch))
		copy(p[at:], patch)
		if restamp {
			pagestore.StampChecksum(p)
		} else {
			clear(p[8:12]) // the header's checksum field
		}
		if err := store.WritePage(id, p); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- openVerifyRun(store, cat) }()
		select {
		case <-done: // an error or a success: both are answers
		case <-time.After(10 * time.Second):
			t.Fatalf("page %d: bytes %x at %d (restamp %t): no answer within 10s", id, patch, at, restamp)
		}
	})
}

// openVerifyRun opens the store, verifies it and runs 20 serial CLUSTER1
// transactions on it, stopping at the first error.
func openVerifyRun(store pagestore.Backend, cat *tamix.Catalog) error {
	eng, err := core.Open(store, nil, core.Config{})
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.Manager().Document().Verify(); err != nil {
		return err
	}
	return tamix.Serial(eng.Manager(), cat, tamix.Cluster1Mix(), tx.LevelRepeatable, 1, 20)
}
