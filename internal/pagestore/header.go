package pagestore

// Common page header. Every page managed through the buffer pool reserves
// its first PageHeaderSize bytes for recovery metadata; the layers above
// (btree, storage metadata) lay their content out after it.
//
//	off 0  u64  pageLSN — LSN of the last log record applied to this page
//	off 8  u32  checksum — CRC32-C over the rest of the page; never 0
//	off 12 u32  reserved
//
// The pageLSN drives the WAL rule (the log must be durable up to it before
// the page is written back) and makes redo conditional: a record is applied
// only when its LSN exceeds the page's. The checksum is stamped on every
// write-back and verified on every Fix that reads from the backend, so a
// torn write surfaces as a permanent, classified error at read time instead
// of silent corruption.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// PageHeaderSize is the number of bytes reserved at the start of every page
// for the recovery header.
const PageHeaderSize = 16

// checksumOff is the byte offset of the checksum field within the header.
const checksumOff = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PageLSN reads the page's LSN from its header.
func PageLSN(p []byte) uint64 {
	return binary.LittleEndian.Uint64(p[:8])
}

// SetPageLSN stamps the page's LSN into its header.
func SetPageLSN(p []byte, lsn uint64) {
	binary.LittleEndian.PutUint64(p[:8], lsn)
}

// pageCRC computes the page checksum: CRC32-C over the whole page with the
// checksum field itself skipped. A CRC of 0 is mapped to 1, so a stamped
// page never holds 0, the field's value on a page nobody wrote.
func pageCRC(p []byte) uint32 {
	c := crc32.Update(0, crcTable, p[:checksumOff])
	c = crc32.Update(c, crcTable, p[checksumOff+4:])
	if c == 0 {
		c = 1
	}
	return c
}

// StampChecksum computes and stores the page checksum. The buffer manager
// calls it immediately before every backend write.
func StampChecksum(p []byte) {
	binary.LittleEndian.PutUint32(p[checksumOff:], pageCRC(p))
}

// VerifyChecksum checks a page image read from the backend. Every page that
// was ever written is stamped, and pageCRC never yields 0, so a stored 0 is
// accepted only on an all-zero page: one the backend zero-extended and
// nobody wrote. Any other mismatch is corruption — typically a torn write,
// or one that lost the sector holding the checksum — and returns a
// *ChecksumError.
func VerifyChecksum(id PageID, p []byte) error {
	stored := binary.LittleEndian.Uint32(p[checksumOff:])
	if stored == 0 && allZero(p) {
		return nil
	}
	if got := pageCRC(p); got != stored {
		return &ChecksumError{Page: id, Stored: stored, Computed: got}
	}
	return nil
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// ChecksumError reports a page whose stored checksum does not match its
// content. It classifies as permanent: re-reading the same torn image
// cannot heal it, only recovery (or a full-image rewrite) can.
type ChecksumError struct {
	Page     PageID
	Stored   uint32
	Computed uint32
}

// Error implements error.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("pagestore: page %d checksum mismatch: stored %08x, computed %08x (torn or corrupt page)",
		e.Page, e.Stored, e.Computed)
}

// Transient implements the fault-classification probe: never retryable.
func (e *ChecksumError) Transient() bool { return false }
