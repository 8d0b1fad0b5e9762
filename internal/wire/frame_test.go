package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// frames is what a frame reader made of a stream: the payloads it handed out
// and the error that ended it.
type frames struct {
	payloads [][]byte
	err      error
}

// readAll drains a stream through next, copying each payload (a FrameReader's
// aliases its buffer).
func readAll(next func() ([]byte, error)) frames {
	var f frames
	for {
		p, err := next()
		if err != nil {
			f.err = err
			return f
		}
		f.payloads = append(f.payloads, append([]byte{}, p...))
	}
}

// reference reads the stream with ReadFrame, the implementation FrameReader
// is measured against.
func reference(stream []byte) frames {
	r := bytes.NewReader(stream)
	return readAll(func() ([]byte, error) { return ReadFrame(r) })
}

// sameFrames demands identical payloads and the identical error: the very
// sentinel for the EOF pair, the same text (which carries the sentinel's, the
// length or both checksums) for the rest.
func sameFrames(t *testing.T, how string, got, want frames) {
	t.Helper()
	if len(got.payloads) != len(want.payloads) {
		t.Fatalf("%s: %d frames, ReadFrame reads %d", how, len(got.payloads), len(want.payloads))
	}
	for i := range got.payloads {
		if !bytes.Equal(got.payloads[i], want.payloads[i]) {
			t.Fatalf("%s: frame %d = %x, ReadFrame reads %x", how, i, got.payloads[i], want.payloads[i])
		}
	}
	sentinel := want.err == io.EOF || want.err == io.ErrUnexpectedEOF
	if (sentinel && got.err != want.err) || got.err.Error() != want.err.Error() {
		t.Fatalf("%s: ends with %v, ReadFrame with %v", how, got.err, want.err)
	}
	for _, e := range []error{ErrFrameTooLarge, ErrCRC} {
		if errors.Is(got.err, e) != errors.Is(want.err, e) {
			t.Fatalf("%s: ends with %v, ReadFrame with %v", how, got.err, want.err)
		}
	}
}

// deliveries are the ways a stream can reach a FrameReader: everything in one
// Read (many frames per read), a byte at a time, in halves, and with the
// final error riding on the last data.
var deliveries = map[string]func(io.Reader) io.Reader{
	"one read":  func(r io.Reader) io.Reader { return r },
	"one byte":  iotest.OneByteReader,
	"halves":    iotest.HalfReader,
	"data +err": iotest.DataErrReader,
}

// checkAgainstReadFrame feeds one stream through every delivery and compares
// with the reference. No buffer may ever exceed what one MaxFrame frame needs.
func checkAgainstReadFrame(t *testing.T, stream []byte) {
	t.Helper()
	want := reference(stream)
	for how, deliver := range deliveries {
		fr := NewFrameReader(deliver(bytes.NewReader(stream)))
		sameFrames(t, how, readAll(fr.Next), want)
		if fr.Cap() > MaxFrame+frameOverhead {
			t.Fatalf("%s: reader grew to %d bytes", how, fr.Cap())
		}
	}
}

// frameStreams is the differential corpus: every seed frame alone and all of
// them back to back, each hostile stream alone and behind a good frame, a
// frame cut at every byte, and frames around the buffer sizes.
func frameStreams() [][]byte {
	seeds := seedFrames()
	all := bytes.Join(seeds, nil)
	streams := append([][]byte{nil, all}, seeds...)
	for _, h := range hostileFrames() {
		streams = append(streams, h, append(append([]byte{}, seeds[2]...), h...))
	}
	for cut := 1; cut < len(seeds[4]); cut++ {
		streams = append(streams, append(append([]byte{}, seeds[3]...), seeds[4][:cut]...))
	}
	var sized bytes.Buffer
	for _, n := range []int{0, 1, frameBufMin - frameOverhead, frameBufMin, frameBufMin + 1, frameBufKeep, frameBufKeep + 1, 3, 200 << 10, 5} {
		if err := WriteFrame(&sized, bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			panic(err)
		}
	}
	return append(streams, sized.Bytes())
}

func TestFrameReaderMatchesReadFrame(t *testing.T) {
	for _, stream := range frameStreams() {
		checkAgainstReadFrame(t, stream)
	}
}

// TestFrameReaderPassesReadErrors: an error of the stream itself (a read
// deadline, a reset) comes through as it is, mid-frame or not.
func TestFrameReaderPassesReadErrors(t *testing.T) {
	frame := seedFrames()[0]
	for _, cut := range []int{0, 2, len(frame) / 2, len(frame)} {
		fr := NewFrameReader(io.MultiReader(bytes.NewReader(frame[:cut]), iotest.ErrReader(iotest.ErrTimeout)))
		if got := readAll(fr.Next); got.err != iotest.ErrTimeout || len(got.payloads) != cut/len(frame) {
			t.Errorf("cut at %d: %d frames, then %v", cut, len(got.payloads), got.err)
		}
	}
}

// TestFrameBuffersShrink: a buffer that grew for a frame above frameBufKeep
// goes back to frameBufMin once the frame has passed; one at or under
// frameBufKeep is kept.
func TestFrameBuffersShrink(t *testing.T) {
	var stream bytes.Buffer
	fw := NewFrameWriter(&stream)
	write := func(n int) {
		t.Helper()
		if err := fw.End(append(fw.Begin(Msg{Op: OpSetValue}), make([]byte, n)...)); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream)
	read := func(n int) {
		t.Helper()
		if p, err := fr.Next(); err != nil || len(p) != headerLen+n {
			t.Fatalf("read back %d bytes, %v; want %d", len(p), err, headerLen+n)
		}
	}
	if fw.Cap() != frameBufMin || fr.Cap() != frameBufMin {
		t.Fatalf("buffers start at %d and %d bytes, want %d", fw.Cap(), fr.Cap(), frameBufMin)
	}
	write(1 << 20)
	if fw.Cap() != frameBufMin {
		t.Errorf("writer holds %d bytes after a 1 MiB frame, want %d", fw.Cap(), frameBufMin)
	}
	write(10)
	read(1 << 20)
	if fr.Cap() < 1<<20 {
		t.Fatalf("reader holds %d bytes with a 1 MiB frame handed out", fr.Cap())
	}
	read(10)
	if fr.Cap() != frameBufMin {
		t.Errorf("reader holds %d bytes after a 1 MiB frame passed, want %d", fr.Cap(), frameBufMin)
	}
	write(20 << 10)
	read(20 << 10)
	write(10)
	read(10)
	for _, c := range []int{fw.Cap(), fr.Cap()} {
		if c < 20<<10 || c > frameBufKeep {
			t.Errorf("a buffer holds %d bytes after a 20 KiB frame passed, want it kept", c)
		}
	}
}

// TestFrameWriterMatchesWriteFrame: frames built in place are byte for byte
// the frames AppendMsg+WriteFrame build, pending frames leave in one Write,
// and an oversized frame is refused without disturbing its neighbours.
func TestFrameWriterMatchesWriteFrame(t *testing.T) {
	msgs := []Msg{
		{Op: OpBegin, Session: 7, Req: 42, DeadlineMS: 1500},
		{Op: OpJumpToID, Session: 7, Req: 43, Body: AppendString(nil, "b0-0")},
		{Op: OpPing, Req: 44, Body: bytes.Repeat([]byte{0xAB}, 3*frameBufMin)},
	}
	var want bytes.Buffer
	var got writeLog
	fw := NewFrameWriter(&got)
	for i, m := range msgs {
		if err := WriteFrame(&want, AppendMsg(nil, m)); err != nil {
			t.Fatal(err)
		}
		if err := fw.End(fw.Begin(m)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			big := append(fw.Begin(Msg{Op: OpSetValue}), make([]byte, MaxFrame)...)
			if err := fw.End(big); !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("a %d-byte payload: %v, want ErrFrameTooLarge", len(big), err)
			}
		}
	}
	if len(got) != 0 {
		t.Fatalf("%d writes before Flush", len(got))
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], want.Bytes()) {
		t.Fatalf("%d writes; the first is\n%x\nWriteFrame writes\n%x", len(got), got[0], want.Bytes())
	}
	if err := fw.Flush(); err != nil || len(got) != 1 {
		t.Fatalf("an empty Flush wrote (%d writes, %v)", len(got), err)
	}
}

// writeLog keeps a copy of every Write.
type writeLog [][]byte

func (w *writeLog) Write(b []byte) (int, error) {
	*w = append(*w, append([]byte{}, b...))
	return len(b), nil
}
