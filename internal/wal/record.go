package wal

// Record framing and payload codecs.
//
// Every record is one frame:
//
//	[u32 size][u32 crc][u8 type][u64 txn][payload]
//
// where size = 9 + len(payload) covers everything after the crc, and crc
// is CRC32 (IEEE) over that same region. A record's LSN is the byte offset
// of its frame start within the whole log (summed across segments), so
// LSNs are dense, strictly increasing, and double as durability positions:
// "the log is durable up to LSN x" means every frame starting before x is
// safely on disk.
//
// Record types:
//
//	RecOp     — one logical document operation: a logical undo payload plus
//	            the physiological page deltas that redo it. Deltas and undo
//	            travel in ONE frame, so recovery never sees half an
//	            operation: either the frame parses (CRC + length) and the
//	            operation is fully redoable and undoable, or the frame is
//	            torn tail and the operation never happened.
//	RecCommit — transaction commit point; Commit forces the log up to it.
//	RecEnd    — transaction fully finished: either aborted at runtime with
//	            all compensations logged, or undone by recovery. A
//	            transaction with RecEnd is never rolled back again, which
//	            is what makes recovery idempotent.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/pagestore"
)

// LSN is a log sequence number: the byte offset of a record in the log.
type LSN = uint64

// Record types.
const (
	// RecOp carries one operation's undo payload and page deltas.
	RecOp byte = 1
	// RecCommit marks a transaction committed.
	RecCommit byte = 2
	// RecEnd marks a transaction fully finished (aborted or undone).
	RecEnd byte = 3
)

// Record is one parsed log record.
type Record struct {
	// LSN is the record's byte offset in the log.
	LSN LSN
	// Type is one of RecOp, RecCommit, RecEnd.
	Type byte
	// Txn is the owning transaction (0 = system).
	Txn uint64
	// Payload is the type-specific body (EncodeOp format for RecOp).
	Payload []byte
}

const (
	// frameOverhead is the size+crc prefix.
	frameOverhead = 8
	// bodyHeader is the type+txn part of the body.
	bodyHeader = 9
)

// frameSize returns the full on-disk size of a record with the given
// payload length.
func frameSize(payloadLen int) int { return frameOverhead + bodyHeader + payloadLen }

// appendFrame encodes one record frame onto buf. body appends the payload
// behind the frame header, so a payload assembled from several sources (a
// RecOp's page deltas) is written once, straight into the record.
func appendFrame(buf []byte, typ byte, txn uint64, body func([]byte) []byte) []byte {
	start := len(buf)
	var hdr [frameOverhead + bodyHeader]byte
	hdr[8] = typ
	binary.LittleEndian.PutUint64(hdr[9:], txn)
	buf = body(append(buf, hdr[:]...))
	frame := buf[start:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(frame)-frameOverhead))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[frameOverhead:]))
	return buf
}

// parseFrame decodes the frame at buf[off:]. ok is false when the bytes do
// not hold one complete, CRC-clean frame — the torn-tail condition.
func parseFrame(buf []byte, off int) (r Record, next int, ok bool) {
	if off+frameOverhead+bodyHeader > len(buf) {
		return Record{}, 0, false
	}
	size := int(binary.LittleEndian.Uint32(buf[off:]))
	if size < bodyHeader || off+frameOverhead+size > len(buf) {
		return Record{}, 0, false
	}
	crc := binary.LittleEndian.Uint32(buf[off+4:])
	body := buf[off+frameOverhead : off+frameOverhead+size]
	if crc32.ChecksumIEEE(body) != crc {
		return Record{}, 0, false
	}
	payload := make([]byte, size-bodyHeader)
	copy(payload, body[bodyHeader:])
	return Record{
		Type:    body[0],
		Txn:     binary.LittleEndian.Uint64(body[1:]),
		Payload: payload,
	}, off + frameOverhead + size, true
}

// ErrCorruptOp reports an undecodable RecOp payload — unlike a torn tail,
// this means a CRC-clean record holds garbage, which is a bug, not a crash.
var ErrCorruptOp = errors.New("wal: corrupt op payload")

// ErrOpTooLarge reports an operation whose page deltas do not fit the RecOp
// payload's 16-bit counts. Encoding it anyway would wrap the counts and log
// a record that redoes a fraction of the operation.
var ErrOpTooLarge = errors.New("wal: operation exceeds the op record's limits")

// maxOpCount is the largest value of the payload's u16 fields: the delta
// count and each delta's offset and length.
const maxOpCount = math.MaxUint16

// opLen returns the EncodeOp payload size of (undo, deltas), or
// ErrOpTooLarge when a count or length overflows its field.
func opLen(undo []byte, deltas []pagestore.PageDelta) (int, error) {
	if len(deltas) > maxOpCount {
		return 0, fmt.Errorf("%w: %d page deltas (limit %d)", ErrOpTooLarge, len(deltas), maxOpCount)
	}
	n := 4 + len(undo) + 2
	for _, d := range deltas {
		if len(d.Data) > maxOpCount || d.Off < 0 || d.Off > maxOpCount {
			return 0, fmt.Errorf("%w: page %d delta of %d bytes at offset %d", ErrOpTooLarge, d.Page, len(d.Data), d.Off)
		}
		n += 8 + len(d.Data)
	}
	if uint64(n) > math.MaxUint32-bodyHeader {
		return 0, fmt.Errorf("%w: %d payload bytes", ErrOpTooLarge, n)
	}
	return n, nil
}

// appendOp appends the RecOp payload of (undo, deltas) to out:
//
//	[u32 undoLen][undo][u16 nDeltas] nDeltas × [u32 page][u16 off][u16 len][data]
//
// The caller has checked the operation with opLen.
func appendOp(out, undo []byte, deltas []pagestore.PageDelta) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(undo)))
	out = append(out, tmp[:4]...)
	out = append(out, undo...)
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(deltas)))
	out = append(out, tmp[:2]...)
	for _, d := range deltas {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(d.Page))
		binary.LittleEndian.PutUint16(tmp[4:], uint16(d.Off))
		binary.LittleEndian.PutUint16(tmp[6:], uint16(len(d.Data)))
		out = append(out, tmp[:8]...)
		out = append(out, d.Data...)
	}
	return out
}

// EncodeOp builds a RecOp payload (the appendOp layout) on its own, for
// tools and tests; AppendOp writes the same bytes straight into the log,
// and is where an operation's size is checked.
func EncodeOp(undo []byte, deltas []pagestore.PageDelta) []byte {
	return appendOp(nil, undo, deltas)
}

// DecodeOp parses an EncodeOp payload.
func DecodeOp(p []byte) (undo []byte, deltas []pagestore.PageDelta, err error) {
	if len(p) < 4 {
		return nil, nil, ErrCorruptOp
	}
	ulen := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) < ulen+2 {
		return nil, nil, ErrCorruptOp
	}
	undo = p[:ulen]
	p = p[ulen:]
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	deltas = make([]pagestore.PageDelta, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < 8 {
			return nil, nil, ErrCorruptOp
		}
		page := pagestore.PageID(binary.LittleEndian.Uint32(p))
		off := int(binary.LittleEndian.Uint16(p[4:]))
		dlen := int(binary.LittleEndian.Uint16(p[6:]))
		p = p[8:]
		if len(p) < dlen || off < pagestore.PageHeaderSize || off+dlen > pagestore.PageSize {
			return nil, nil, ErrCorruptOp
		}
		deltas = append(deltas, pagestore.PageDelta{Page: page, Off: off, Data: p[:dlen]})
		p = p[dlen:]
	}
	if len(p) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptOp, len(p))
	}
	return undo, deltas, nil
}
