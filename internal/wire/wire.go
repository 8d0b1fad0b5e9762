// Package wire defines the xtcd client/server protocol: length-prefixed,
// CRC-framed binary messages multiplexing many sessions over one TCP
// connection (the dispatcher pattern of RPC servers, specialized to the
// engine's meta-lock operation set).
//
// Framing (all integers big-endian):
//
//	u32 length | payload (length bytes) | u32 CRC-32C(payload)
//
// Message payload:
//
//	u8 opcode | u32 session | u32 request | u32 deadline-ms | body
//
// The session field multiplexes independent sessions over one connection;
// the request field matches responses to requests (a client may pipeline);
// deadline-ms propagates the client's remaining per-request budget so the
// server can bound lock waits via context (0 = no deadline). Responses echo
// opcode, session, and request; their body starts with a status byte
// (StatusOK followed by the result encoding, anything else followed by an
// error string).
//
// A connection reads and writes frames through a FrameReader and a
// FrameWriter (frame.go): one Read delivers every frame in flight, a reply is
// built in place in the buffer one Write sends. ReadFrame and WriteFrame are
// the one-frame-at-a-time reference the tests hold them to.
//
// Body values use a compact self-describing vocabulary: unsigned varints,
// length-prefixed byte strings, encoded SPLIDs, and node records. Session
// control bodies (open, resume, stats, catalog) are hand-written append/read
// pairs in codec.go. Node operations are not: each is one row of the
// operation table in ops.go — name, which operand slots its request carries,
// the layout of its result — and one shape-driven codec (AppendArgs,
// DecodeArgs, AppendResult, DecodeResult) serves them all. The codec is
// free of reflection, and the fuzz target in fuzz_test.go beats on the
// decoders with the frame corpus.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrame bounds a frame payload (catalog responses for the full-scale bib
// document are ~100 KiB; 16 MiB leaves room for large fragments without
// letting a corrupt length field allocate the moon).
const MaxFrame = 16 << 20

// headerLen is the fixed message header: opcode, session, request, deadline.
const headerLen = 1 + 4 + 4 + 4

// ErrFrameTooLarge is returned for length prefixes beyond MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrCRC is returned when a frame's checksum does not match its payload.
var ErrCRC = errors.New("wire: frame checksum mismatch")

// ErrShort is returned when a message or body is truncated.
var ErrShort = errors.New("wire: truncated message")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Op is a protocol opcode.
type Op uint8

// Session-control and admin opcodes.
const (
	// OpOpenSession creates a session: body = protocol name, isolation u8,
	// depth zigzag varint. The response body carries the assigned session id
	// (u32 varint); subsequent requests address it via the header field.
	OpOpenSession Op = 1
	// OpCloseSession ends a session (aborting any active transaction).
	OpCloseSession Op = 2
	// OpBegin starts a transaction on the session (one at a time). Response
	// body: transaction id uvarint.
	OpBegin Op = 3
	// OpCommit commits the session's active transaction.
	OpCommit Op = 4
	// OpAbort aborts the session's active transaction.
	OpAbort Op = 5
	// OpCatalog returns the engine's jump-target catalog for the session's
	// protocol: three string lists (books, topics, persons).
	OpCatalog Op = 6
	// OpLookupName resolves a vocabulary name to its surrogate: body =
	// string; response = u8 found, u16-as-uvarint surrogate.
	OpLookupName Op = 7
	// OpStats returns the counters of a protocol's engine registry by name
	// (body = protocol name; session 0 allowed): see AppendCounters.
	OpStats Op = 8
	// OpAudit runs the engine's residue audit (node.Manager.Audit: document
	// Verify, lock LeakCheck, snapshot and page-version residue) for a
	// protocol (body = protocol name; session 0 allowed).
	OpAudit Op = 9
	// OpPing is a connectivity check; the body is echoed.
	OpPing Op = 10
	// OpHeartbeat is the keep-alive tick. The server answers StatusOK with an
	// empty body and refreshes the connection's read-idle allowance; when the
	// header's session field is non-zero and names a session on this
	// connection, that session's idle clock is refreshed too. A client that
	// stops heartbeating (and sends no other traffic) is closed after it
	// misses its interval allowance.
	OpHeartbeat Op = 11
	// OpResumeSession re-establishes a session after a reconnect: body = old
	// session id (uvarint) followed by the OpenSession fields. The server
	// evicts the stale session if it still exists (canceling its transaction
	// and releasing its locks) and admits a fresh session with the same
	// parameters; the response body carries the new session id like
	// OpOpenSession. The old transaction is gone — resumption restores the
	// session, not in-flight work.
	OpResumeSession Op = 12
)

// Status is the first byte of every response body.
type Status uint8

const (
	// StatusOK precedes a successful result.
	StatusOK Status = 0
	// StatusDeadlock maps lock.ErrDeadlockVictim (abort-and-retry).
	StatusDeadlock Status = 1
	// StatusTimeout maps lock.ErrLockTimeout (abort-and-retry).
	StatusTimeout Status = 2
	// StatusNotFound maps storage.ErrNodeNotFound.
	StatusNotFound Status = 3
	// StatusTxDone maps tx.ErrTxnDone / operating without a transaction.
	StatusTxDone Status = 4
	// StatusBusy is an admission-control rejection: session limit reached or
	// the session's work queue is full. The client may back off and retry.
	StatusBusy Status = 5
	// StatusCanceled maps context cancellation (disconnect or deadline).
	StatusCanceled Status = 6
	// StatusShutdown means the server is draining and rejects new work.
	StatusShutdown Status = 7
	// StatusBadRequest marks malformed or out-of-protocol requests.
	StatusBadRequest Status = 8
	// StatusNoSession means the named session no longer exists on this
	// connection — reaped for idleness, evicted by a resume, or torn down by
	// a drain. The client should resume (OpResumeSession) or reopen.
	StatusNoSession Status = 9
	// StatusErr is any other server-side failure (message in the body).
	StatusErr Status = 255
)

var statusNames = map[Status]string{
	StatusOK:         "ok",
	StatusDeadlock:   "deadlock",
	StatusTimeout:    "timeout",
	StatusNotFound:   "not-found",
	StatusTxDone:     "tx-done",
	StatusBusy:       "busy",
	StatusCanceled:   "canceled",
	StatusShutdown:   "shutdown",
	StatusBadRequest: "bad-request",
	StatusNoSession:  "no-session",
	StatusErr:        "error",
}

// String implements fmt.Stringer.
func (s Status) String() string {
	if name, ok := statusNames[s]; ok {
		return name
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Msg is one decoded protocol message (request or response).
type Msg struct {
	Op Op
	// Session addresses one session on the connection (0 = connection scope:
	// OpOpenSession, OpStats, OpAudit, OpPing).
	Session uint32
	// Req matches responses to requests; the client picks it.
	Req uint32
	// DeadlineMS is the client's remaining budget for this request in
	// milliseconds (0 = none). Responses leave it 0.
	DeadlineMS uint32
	// Body is the op-specific payload (for responses: status byte + rest).
	Body []byte
}

// AppendMsg serializes m into dst (header + body), returning the extended
// slice. The result is a frame payload for WriteFrame.
func AppendMsg(dst []byte, m Msg) []byte {
	dst = append(dst, byte(m.Op))
	dst = binary.BigEndian.AppendUint32(dst, m.Session)
	dst = binary.BigEndian.AppendUint32(dst, m.Req)
	dst = binary.BigEndian.AppendUint32(dst, m.DeadlineMS)
	return append(dst, m.Body...)
}

// DecodeMsg parses a frame payload. The returned Msg's Body aliases b.
func DecodeMsg(b []byte) (Msg, error) {
	if len(b) < headerLen {
		return Msg{}, fmt.Errorf("%w: %d-byte message", ErrShort, len(b))
	}
	return Msg{
		Op:         Op(b[0]),
		Session:    binary.BigEndian.Uint32(b[1:5]),
		Req:        binary.BigEndian.Uint32(b[5:9]),
		DeadlineMS: binary.BigEndian.Uint32(b[9:13]),
		Body:       b[headerLen:],
	}, nil
}

// WriteFrame writes one frame: length prefix, payload, CRC-32C trailer. A
// single Write call keeps the frame atomic on the wire without extra locking
// when callers serialize writes themselves.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	buf := make([]byte, 0, 4+len(payload)+4)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame and verifies its checksum, returning the
// payload. io.EOF surfaces unchanged on a clean connection close between
// frames; a close mid-frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	buf := make([]byte, n+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	payload := buf[:n]
	want := binary.BigEndian.Uint32(buf[n:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: got %08x want %08x", ErrCRC, got, want)
	}
	return payload, nil
}
