package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// A connection's frame buffers start at frameBufMin, grow to the frame at
// hand, and are dropped back to frameBufMin once a frame above frameBufKeep
// has passed through: one MaxFrame fragment must not stay pinned by every
// connection that ever carried one.
const (
	frameBufMin  = 4 << 10
	frameBufKeep = 64 << 10
)

// frameOverhead is the length prefix plus the CRC trailer.
const frameOverhead = 8

// FrameReader reads frames through one buffer: a single Read on the
// underlying stream delivers every frame the peer had in flight, and Next
// hands them out one by one, length and checksum verified in place. It
// accepts exactly the streams ReadFrame accepts, with the same errors.
type FrameReader struct {
	r      io.Reader
	buf    []byte
	rd, wr int // buf[rd:wr] is read from the stream and not yet handed out
}

// NewFrameReader returns a FrameReader on r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, frameBufMin)}
}

// Cap returns the size of the buffer the reader holds on to.
func (fr *FrameReader) Cap() int { return len(fr.buf) }

// Next returns the next frame's payload. The slice aliases the reader's
// buffer and is valid only until the following call; copy what must outlive
// it. io.EOF surfaces unchanged on a clean close between frames; a close
// mid-frame is io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() ([]byte, error) {
	for {
		need := 4
		if have := fr.buf[fr.rd:fr.wr]; len(have) >= 4 {
			n := binary.BigEndian.Uint32(have)
			if n > MaxFrame {
				return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
			}
			if need = int(n) + frameOverhead; len(have) >= need {
				payload := have[4 : 4+n : 4+n]
				want := binary.BigEndian.Uint32(have[4+n:])
				if got := crc32.Checksum(payload, castagnoli); got != want {
					return nil, fmt.Errorf("%w: got %08x want %08x", ErrCRC, got, want)
				}
				fr.rd += need
				return payload, nil
			}
		}
		if err := fr.fill(need); err != nil {
			return nil, err
		}
	}
}

// fill moves the unread bytes to the front of a buffer with room for a frame
// of need bytes — a larger one if need be, a fresh small one when an oversized
// one is no longer needed — and reads once. An error that arrives with data
// is left to the next Read to repeat, as io.ReadFull leaves it in ReadFrame.
func (fr *FrameReader) fill(need int) error {
	buf, have := fr.buf, fr.wr-fr.rd
	if need > len(buf) || len(buf) > frameBufKeep && need <= frameBufKeep {
		buf = make([]byte, max(need, frameBufMin))
	}
	if fr.rd > 0 || len(buf) != len(fr.buf) {
		copy(buf, fr.buf[fr.rd:fr.wr])
	}
	n, err := fr.r.Read(buf[have:])
	fr.buf, fr.rd, fr.wr = buf, 0, have+n
	if n > 0 || err == nil {
		return nil
	}
	if err == io.EOF && have > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// FrameWriter builds outgoing frames in one buffer and writes every pending
// frame with a single Write. The producer appends header, status and body
// straight into the frame: the bytes are copied once, into the buffer the
// kernel reads from. Callers serialize access themselves.
type FrameWriter struct {
	w     io.Writer
	buf   []byte
	start int // offset of the open frame's length prefix
}

// NewFrameWriter returns a FrameWriter on w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, buf: make([]byte, 0, frameBufMin)}
}

// Cap returns the size of the buffer the writer holds on to.
func (fw *FrameWriter) Cap() int { return cap(fw.buf) }

// Begin opens a frame with m — its header and whatever body it already
// carries — and returns the buffer to append the rest of the body to; hand
// the extended slice to End.
func (fw *FrameWriter) Begin(m Msg) []byte {
	fw.start = len(fw.buf)
	return AppendMsg(append(fw.buf, 0, 0, 0, 0), m)
}

// End closes the frame Begin opened: b is Begin's slice extended by the body.
// A payload beyond MaxFrame is dropped and reported; frames closed earlier
// stay pending.
func (fw *FrameWriter) End(b []byte) error {
	payload := b[fw.start+4:]
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	binary.BigEndian.PutUint32(b[fw.start:], uint32(len(payload)))
	fw.buf = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return nil
}

// Flush writes the pending frames with one Write and empties the buffer,
// whether or not the Write succeeded — after a failed or partial write the
// stream is beyond repair and the caller closes it.
func (fw *FrameWriter) Flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	if fw.buf = fw.buf[:0]; cap(fw.buf) > frameBufKeep {
		fw.buf = make([]byte, 0, frameBufMin)
	}
	return err
}
