package splid

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary encoding of SPLIDs.
//
// Each division is encoded with a prefix-free, order-preserving variable
// length code in the spirit of ORDPATH's Li/Ling bitstrings: codes of a
// longer class start with a strictly larger leading byte pattern and cover a
// strictly larger value range, so comparing two encoded labels byte-wise is
// exactly document-order comparison of the labels (a prefix label encodes to
// a byte prefix and sorts first). This lets B-trees store SPLIDs as opaque
// byte keys and still keep the document in document order.
//
// Code classes (v is the division value):
//
//	0xxxxxxx                              v in [0, 2^7)
//	10xxxxxx X                            v in [2^7, 2^7+2^14)
//	110xxxxx X X                          v in [2^7+2^14, 2^7+2^14+2^21)
//	1110xxxx X X X                        v in [..., +2^28)
//	11110000 X X X X                      remaining uint32 values
//
// where X is a payload byte and the stored payload is the value minus the
// class base, big-endian. The class ranges are disjoint and every class base
// is even, so a value has exactly one code (byte equality is label
// equality) and a division's parity is the low bit of its code's last byte.
// An ID holds this encoding and nothing else: every method below walks the
// codes' header bytes.

var classBase = [5]uint64{
	0,
	1 << 7,
	1<<7 + 1<<14,
	1<<7 + 1<<14 + 1<<21,
	1<<7 + 1<<14 + 1<<21 + 1<<28,
}

// maxPayload4 is the largest class-4 payload that still decodes to a uint32.
const maxPayload4 = 1<<32 - 1 - 1<<7 - 1<<14 - 1<<21 - 1<<28

// codeLen maps a header byte to the length of the code it opens; 0 marks the
// bytes that open none (0xF1–0xFF).
var codeLen = func() (t [256]uint8) {
	for h := range t {
		switch {
		case h < 0x80:
			t[h] = 1
		case h < 0xC0:
			t[h] = 2
		case h < 0xE0:
			t[h] = 3
		case h < 0xF0:
			t[h] = 4
		case h == 0xF0:
			t[h] = 5
		}
	}
	return t
}()

// appendCode appends the code of value x. x may be 2^32 — the bumped final
// division of a SubtreeLimit — which class 4's payload still holds.
func appendCode(dst []byte, x uint64) []byte {
	switch {
	case x < classBase[1]:
		return append(dst, byte(x))
	case x < classBase[2]:
		d := x - classBase[1]
		return append(dst, 0x80|byte(d>>8), byte(d))
	case x < classBase[3]:
		d := x - classBase[2]
		return append(dst, 0xC0|byte(d>>16), byte(d>>8), byte(d))
	case x < classBase[4]:
		d := x - classBase[3]
		return append(dst, 0xE0|byte(d>>24), byte(d>>16), byte(d>>8), byte(d))
	default:
		d := x - classBase[4]
		return append(dst, 0xF0, byte(d>>24), byte(d>>16), byte(d>>8), byte(d))
	}
}

// code returns the value of the well-formed code at s[i:] and its length.
func code(s string, i int) (uint64, int) {
	h := s[i]
	switch n := int(codeLen[h]); n {
	case 1:
		return uint64(h), n
	case 2:
		return classBase[1] + (uint64(h&0x3F)<<8 | uint64(s[i+1])), n
	case 3:
		return classBase[2] + (uint64(h&0x1F)<<16 | uint64(s[i+1])<<8 | uint64(s[i+2])), n
	case 4:
		return classBase[3] + (uint64(h&0x0F)<<24 | uint64(s[i+1])<<16 | uint64(s[i+2])<<8 | uint64(s[i+3])), n
	default:
		return classBase[4] + (uint64(s[i+1])<<24 | uint64(s[i+2])<<16 | uint64(s[i+3])<<8 | uint64(s[i+4])), n
	}
}

// ErrBadEncoding is returned when decoding malformed SPLID bytes.
var ErrBadEncoding = errors.New("splid: bad encoding")

// Encode returns the order-preserving byte encoding of id. The null ID
// encodes to an empty (non-nil) slice.
func (id ID) Encode() []byte {
	return id.AppendEncode(make([]byte, 0, len(id.enc)))
}

// AppendEncode appends the encoding of id to dst.
func (id ID) AppendEncode(dst []byte) []byte {
	dst = append(dst, id.enc...)
	if dst == nil {
		dst = []byte{}
	}
	return dst
}

// EncodedLen returns the number of bytes Encode would produce.
func (id ID) EncodedLen() int { return len(id.enc) }

// Decode parses an encoded SPLID, consuming the whole input: one walk over
// the header bytes that accepts exactly the well-formed, valid labels, then
// one copy. Empty input yields the null ID.
func Decode(b []byte) (ID, error) {
	if len(b) == 0 {
		return Null, nil
	}
	if !wellFormed(b) {
		return Null, decodeError(b)
	}
	return ID{enc: string(b)}, nil
}

// wellFormed reports whether b is a sequence of whole codes with no class-4
// overflow and no zero division that opens with division 1 (the one-byte
// code 0x01) and closes on an odd division.
func wellFormed(b []byte) bool {
	if b[0] != 1 || b[len(b)-1]&1 == 0 {
		return false
	}
	for i := 0; i < len(b); {
		h := b[i]
		n := int(codeLen[h])
		if n == 0 || h == 0 || len(b)-i < n || n == 5 && binary.BigEndian.Uint32(b[i+1:]) > maxPayload4 {
			return false
		}
		i += n
	}
	return true
}

// decodeError explains why wellFormed refused b: a malformed code first,
// then the structural rules in Parse's order.
func decodeError(b []byte) error {
	zero := -1
	k := 0
	for i := 0; i < len(b); k++ {
		h := b[i]
		n := int(codeLen[h])
		switch {
		case n == 0:
			return fmt.Errorf("%w: header byte %#x", ErrBadEncoding, h)
		case len(b)-i < n:
			return fmt.Errorf("%w: truncated division (need %d bytes, have %d)", ErrBadEncoding, n, len(b)-i)
		case n == 5 && binary.BigEndian.Uint32(b[i+1:]) > maxPayload4:
			return fmt.Errorf("%w: division overflows uint32", ErrBadEncoding)
		case h == 0 && zero < 0:
			zero = k
		}
		i += n
	}
	if first, _ := code(string(b), 0); first != 1 {
		return fmt.Errorf("%w: first division must be 1 (the root), got %d", errInvalid, first)
	}
	if zero >= 0 {
		return fmt.Errorf("%w: division %d is zero", errInvalid, zero)
	}
	return fmt.Errorf("%w: trailing overflow division", errInvalid)
}
