package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// Reader consumes an encoded body left to right. Decoder methods return the
// zero value after the first error; check Err (or use the value-and-error
// variants) once at the end of a fixed shape.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps a body slice.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unconsumed bytes.
func (r *Reader) Len() int { return len(r.b) }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrShort, what)
	}
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads one zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bytes reads one length-prefixed byte string (aliasing the input).
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("bytes")
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// String reads one length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// ID reads one encoded SPLID (empty = null ID).
func (r *Reader) ID() splid.ID {
	b := r.Bytes()
	if r.err != nil || len(b) == 0 {
		return splid.ID{}
	}
	id, err := splid.Decode(b)
	if err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("wire: bad SPLID: %w", err)
		}
		return splid.ID{}
	}
	return id
}

// Node reads one node record (see AppendNode).
func (r *Reader) Node() xmlmodel.Node {
	id := r.ID()
	kind := r.Byte()
	name := r.Uvarint()
	value := r.Bytes()
	if r.err != nil {
		return xmlmodel.Node{}
	}
	n := xmlmodel.Node{ID: id, Kind: xmlmodel.Kind(kind), Name: xmlmodel.Sur(name)}
	if len(value) > 0 {
		n.Value = value
	}
	// A null-ID node is the "edge leads nowhere" result and carries kind 0;
	// any other kind must be valid.
	if kind != 0 && !n.Kind.Valid() {
		r.err = fmt.Errorf("wire: invalid node kind %d", kind)
		return xmlmodel.Node{}
	}
	if name > math.MaxUint16 {
		r.err = fmt.Errorf("wire: name surrogate %d out of range", name)
		return xmlmodel.Node{}
	}
	return n
}

// Nodes reads a node list (see AppendNodes).
func (r *Reader) Nodes() []xmlmodel.Node {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	// Each encoded node needs at least 3 bytes (empty id, kind, empty
	// value); reject counts the remaining body cannot possibly hold so a
	// corrupt count cannot pre-allocate gigabytes.
	if n > uint64(len(r.b))/3+1 {
		r.fail("node list")
		return nil
	}
	out := make([]xmlmodel.Node, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.Node())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// StringList reads a string list (see AppendStringList).
func (r *Reader) StringList() []string {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b))+1 {
		r.fail("string list")
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// --- append side ------------------------------------------------------------

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends a zigzag-encoded signed varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendID appends an encoded SPLID (null ID = empty bytes).
func AppendID(dst []byte, id splid.ID) []byte {
	return id.AppendEncode(binary.AppendUvarint(dst, uint64(id.EncodedLen())))
}

// AppendNode appends one node record: id, kind byte, name surrogate, value.
func AppendNode(dst []byte, n xmlmodel.Node) []byte {
	dst = AppendID(dst, n.ID)
	dst = append(dst, byte(n.Kind))
	dst = binary.AppendUvarint(dst, uint64(n.Name))
	return AppendBytes(dst, n.Value)
}

// AppendNodes appends a node list: count, then each node.
func AppendNodes(dst []byte, ns []xmlmodel.Node) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ns)))
	for _, n := range ns {
		dst = AppendNode(dst, n)
	}
	return dst
}

// AppendStringList appends a string list: count, then each string.
func AppendStringList(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// --- node operations: the shape-driven codec --------------------------------

// AppendArgs appends a node operation's request body: the slots shape names,
// in the fixed order id, id2, name, bytes, flag.
func AppendArgs(dst []byte, shape ArgShape, a Args) []byte {
	if shape&ArgID != 0 {
		dst = AppendID(dst, a.ID)
	}
	if shape&ArgID2 != 0 {
		dst = AppendID(dst, a.ID2)
	}
	if shape&ArgName != 0 {
		dst = AppendString(dst, a.Name)
	}
	if shape&ArgBytes != 0 {
		dst = AppendBytes(dst, a.Bytes)
	}
	if shape&ArgFlag != 0 {
		flag := byte(0)
		if a.Flag {
			flag = 1
		}
		dst = append(dst, flag)
	}
	return dst
}

// DecodeArgs parses a node operation's request body (Bytes aliases body). On
// error the returned Args are not meaningful.
func DecodeArgs(shape ArgShape, body []byte) (Args, error) {
	r := Reader{b: body}
	var a Args
	if shape&ArgID != 0 {
		a.ID = r.ID()
	}
	if shape&ArgID2 != 0 {
		a.ID2 = r.ID()
	}
	if shape&ArgName != 0 {
		a.Name = r.String()
	}
	if shape&ArgBytes != 0 {
		a.Bytes = r.Bytes()
	}
	if shape&ArgFlag != 0 {
		a.Flag = r.Byte() != 0
	}
	return a, r.err
}

// AppendResult appends a node operation's StatusOK body.
func AppendResult(dst []byte, shape ResultShape, res Result) []byte {
	switch shape {
	case ResNode:
		return AppendNode(dst, res.Node)
	case ResNodes:
		return AppendNodes(dst, res.Nodes)
	case ResBytes:
		return AppendBytes(dst, res.Bytes)
	case ResNodeNodes:
		return AppendNodes(AppendNode(dst, res.Node), res.Nodes)
	}
	return dst
}

// DecodeResult parses a node operation's StatusOK body (node values and
// Bytes alias body). On error the returned Result is not meaningful.
func DecodeResult(shape ResultShape, body []byte) (Result, error) {
	r := Reader{b: body}
	var res Result
	switch shape {
	case ResNode:
		res.Node = r.Node()
	case ResNodes:
		res.Nodes = r.Nodes()
	case ResBytes:
		res.Bytes = r.Bytes()
	case ResNodeNodes:
		res.Node = r.Node()
		res.Nodes = r.Nodes()
	}
	return res, r.err
}

// --- composite shapes -------------------------------------------------------

// Catalog is the jump-target catalog an engine exposes to remote workloads:
// the id-attribute values TaMix transactions address books, topics, and
// persons by.
type Catalog struct {
	Books   []string
	Topics  []string
	Persons []string
}

// AppendCatalog appends a catalog body.
func AppendCatalog(dst []byte, c Catalog) []byte {
	dst = AppendStringList(dst, c.Books)
	dst = AppendStringList(dst, c.Topics)
	return AppendStringList(dst, c.Persons)
}

// Catalog reads a catalog body.
func (r *Reader) Catalog() Catalog {
	return Catalog{
		Books:   r.StringList(),
		Topics:  r.StringList(),
		Persons: r.StringList(),
	}
}

// MaxCounters bounds the counter list of an OpStats response: many times what
// an engine registers (~50 names), small enough that a hostile count cannot
// size an allocation.
const MaxCounters = 1024

// AppendCounters appends an OpStats response body: the count, then each
// (name, value) pair in ascending name order — one canonical byte string per
// counter set. More than MaxCounters is an error, never a silent truncation:
// a missing name would read as zero.
func AppendCounters(dst []byte, counters map[string]uint64) ([]byte, error) {
	if len(counters) > MaxCounters {
		return dst, fmt.Errorf("wire: %d counters exceed the limit of %d", len(counters), MaxCounters)
	}
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = binary.AppendUvarint(AppendString(dst, name), counters[name])
	}
	return dst, nil
}

// Counters reads an OpStats response body (see AppendCounters). Names must
// ascend strictly, so a duplicate cannot overwrite an earlier value.
func (r *Reader) Counters() map[string]uint64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	// A pair needs at least two bytes (empty name, one-byte value).
	if n > MaxCounters || n > uint64(len(r.b))/2 {
		r.fail("counter list")
		return nil
	}
	out := make(map[string]uint64, n)
	prev := ""
	for i := uint64(0); i < n; i++ {
		name, v := r.String(), r.Uvarint()
		if r.err != nil {
			return nil
		}
		if i > 0 && name <= prev {
			r.err = fmt.Errorf("wire: counter %q out of order after %q", name, prev)
			return nil
		}
		out[name], prev = v, name
	}
	return out
}

// OpenSession is the decoded OpOpenSession request body.
type OpenSession struct {
	// Protocol names the lock protocol the session runs under.
	Protocol string
	// Isolation is the tx.Level as a byte.
	Isolation uint8
	// Depth is the lock-depth parameter (negative = unlimited).
	Depth int
}

// AppendOpenSession appends an OpOpenSession request body.
func AppendOpenSession(dst []byte, o OpenSession) []byte {
	dst = AppendString(dst, o.Protocol)
	dst = append(dst, o.Isolation)
	return binary.AppendVarint(dst, int64(o.Depth))
}

// OpenSession reads an OpOpenSession request body.
func (r *Reader) OpenSession() OpenSession {
	return OpenSession{
		Protocol:  r.String(),
		Isolation: r.Byte(),
		Depth:     int(r.Varint()),
	}
}

// ResumeSession is the decoded OpResumeSession request body: the id of the
// session being replaced plus the parameters to open its successor with.
type ResumeSession struct {
	// Old is the session id the client held before its connection died.
	Old uint32
	// Open carries the protocol/isolation/depth of the replacement session
	// (the client re-sends what it originally opened with).
	Open OpenSession
}

// AppendResumeSession appends an OpResumeSession request body.
func AppendResumeSession(dst []byte, rs ResumeSession) []byte {
	dst = binary.AppendUvarint(dst, uint64(rs.Old))
	return AppendOpenSession(dst, rs.Open)
}

// ResumeSession reads an OpResumeSession request body.
func (r *Reader) ResumeSession() ResumeSession {
	return ResumeSession{
		Old:  uint32(r.Uvarint()),
		Open: r.OpenSession(),
	}
}

// Fate codes carried in the OpResumeSession response: what happened to the
// resumed session's last in-flight transaction. They close the classic
// lost-reply hole — a client whose commit round trip was severed learns from
// the resume whether that commit landed.
const (
	// FateUnknown means the server cannot say (no record of the session, or
	// its teardown did not finish within the resume's wait budget).
	FateUnknown uint8 = 0
	// FateCommitted means the transaction committed durably.
	FateCommitted uint8 = 1
	// FateAborted means the transaction rolled back.
	FateAborted uint8 = 2
)

// ResumeResult is the decoded OpResumeSession response body.
type ResumeResult struct {
	// ID is the replacement session's id.
	ID uint32
	// Fate reports the outcome of the old session's last transaction.
	Fate uint8
	// FateTxn is the transaction id Fate refers to (0 with FateUnknown).
	FateTxn uint64
}

// AppendResumeResult appends an OpResumeSession response body.
func AppendResumeResult(dst []byte, rr ResumeResult) []byte {
	dst = binary.AppendUvarint(dst, uint64(rr.ID))
	dst = append(dst, rr.Fate)
	return binary.AppendUvarint(dst, rr.FateTxn)
}

// ResumeResult reads an OpResumeSession response body.
func (r *Reader) ResumeResult() ResumeResult {
	return ResumeResult{
		ID:      uint32(r.Uvarint()),
		Fate:    r.Byte(),
		FateTxn: r.Uvarint(),
	}
}
