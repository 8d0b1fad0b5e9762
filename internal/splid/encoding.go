package splid

import (
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
// class base, big-endian.

var classBase = [5]uint64{
	0,
	1 << 7,
	1<<7 + 1<<14,
	1<<7 + 1<<14 + 1<<21,
	1<<7 + 1<<14 + 1<<21 + 1<<28,
}

// AppendDivision appends the order-preserving encoding of one division value
// to dst and returns the extended slice.
func AppendDivision(dst []byte, v uint32) []byte {
	x := uint64(v)
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

// ErrBadEncoding is returned when decoding malformed SPLID bytes.
var ErrBadEncoding = errors.New("splid: bad encoding")

// decodeDivision decodes one division from b, returning the value and the
// number of bytes consumed.
func decodeDivision(b []byte) (uint32, int, error) {
	if len(b) == 0 {
		return 0, 0, fmt.Errorf("%w: empty input", ErrBadEncoding)
	}
	h := b[0]
	var class, n int
	switch {
	case h&0x80 == 0:
		class, n = 0, 1
	case h&0xC0 == 0x80:
		class, n = 1, 2
	case h&0xE0 == 0xC0:
		class, n = 2, 3
	case h&0xF0 == 0xE0:
		class, n = 3, 4
	case h == 0xF0:
		class, n = 4, 5
	default:
		return 0, 0, fmt.Errorf("%w: header byte %#x", ErrBadEncoding, h)
	}
	if len(b) < n {
		return 0, 0, fmt.Errorf("%w: truncated division (need %d bytes, have %d)", ErrBadEncoding, n, len(b))
	}
	var d uint64
	switch class {
	case 0:
		d = uint64(h)
	case 1:
		d = uint64(h&0x3F)<<8 | uint64(b[1])
	case 2:
		d = uint64(h&0x1F)<<16 | uint64(b[1])<<8 | uint64(b[2])
	case 3:
		d = uint64(h&0x0F)<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	case 4:
		d = uint64(b[1])<<24 | uint64(b[2])<<16 | uint64(b[3])<<8 | uint64(b[4])
	}
	v := d + classBase[class]
	if v > uint64(^uint32(0)) {
		return 0, 0, fmt.Errorf("%w: division overflows uint32", ErrBadEncoding)
	}
	return uint32(v), n, nil
}

// Encode returns the order-preserving byte encoding of id. The null ID
// encodes to an empty (non-nil) slice.
func (id ID) Encode() []byte {
	return id.AppendEncode(make([]byte, 0, 2*len(id.divs)))
}

// AppendEncode appends the encoding of id to dst.
func (id ID) AppendEncode(dst []byte) []byte {
	for _, d := range id.divs {
		dst = AppendDivision(dst, d)
	}
	if dst == nil {
		dst = []byte{}
	}
	return dst
}

// Decode parses an encoded SPLID, consuming the whole input. Empty input
// yields the null ID.
func Decode(b []byte) (ID, error) {
	if len(b) == 0 {
		return Null, nil
	}
	divs := make([]uint32, 0, len(b))
	for len(b) > 0 {
		v, n, err := decodeDivision(b)
		if err != nil {
			return Null, err
		}
		divs = append(divs, v)
		b = b[n:]
	}
	id := ID{divs: divs}
	if err := id.validate(); err != nil {
		return Null, err
	}
	return id, nil
}

// EncodedLen returns the number of bytes Encode would produce.
func (id ID) EncodedLen() int {
	n := 0
	for _, d := range id.divs {
		x := uint64(d)
		switch {
		case x < classBase[1]:
			n++
		case x < classBase[2]:
			n += 2
		case x < classBase[3]:
			n += 3
		case x < classBase[4]:
			n += 4
		default:
			n += 5
		}
	}
	return n
}
