package wire

import (
	"bytes"
	"testing"

	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// seedFrames builds the fuzz seed corpus: one well-formed frame per message
// family, so the fuzzer starts from every decoder path. `go test` replays
// these as regular unit cases even when not fuzzing.
func seedFrames() [][]byte {
	id := splid.MustParse("1.3.5")
	var seeds [][]byte
	add := func(m Msg) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, AppendMsg(nil, m)); err != nil {
			panic(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	add(Msg{Op: OpOpenSession, Req: 1,
		Body: AppendOpenSession(nil, OpenSession{Protocol: "taDOM3+", Isolation: 3, Depth: 5})})
	add(Msg{Op: OpBegin, Session: 1, Req: 2})
	add(Msg{Op: OpJumpToID, Session: 1, Req: 3, DeadlineMS: 100, Body: AppendString(nil, "b0-0")})
	add(Msg{Op: OpReadFragment, Session: 1, Req: 4, Body: append(AppendID(nil, id), 1)})
	add(Msg{Op: OpSetAttribute, Session: 1, Req: 5,
		Body: AppendBytes(AppendString(AppendID(nil, id), "person"), []byte("p1"))})
	add(Msg{Op: OpInsertElementBefore, Session: 1, Req: 6,
		Body: AppendString(AppendID(AppendID(nil, id), id.Child(3)), "lend")})
	add(Msg{Op: OpCommit, Session: 1, Req: 7})
	add(Msg{Op: OpStats, Req: 8, Body: AppendString(nil, "URIX")})
	add(Msg{Op: OpCatalog, Session: 1, Req: 9})
	// A response-shaped frame: status byte + node list.
	add(Msg{Op: OpGetChildren, Session: 1, Req: 10,
		Body: AppendNodes([]byte{byte(StatusOK)}, []xmlmodel.Node{
			{ID: id, Kind: xmlmodel.KindElement, Name: 2},
			{ID: id.Child(7), Kind: xmlmodel.KindText, Value: []byte("v")},
		})})
	// A stats response: status byte + counter list.
	stats, err := AppendCounters([]byte{byte(StatusOK)}, map[string]uint64{"lock.requests": 99, "lock.deadlocks": 1})
	if err != nil {
		panic(err)
	}
	add(Msg{Op: OpStats, Req: 11, Body: stats})
	// Connection-lifecycle opcodes: keep-alive ticks (bare and session-
	// scoped) and a session resume carrying the reopen parameters.
	add(Msg{Op: OpHeartbeat, Req: 12})
	add(Msg{Op: OpHeartbeat, Session: 1, Req: 13, Body: []byte("hb")})
	add(Msg{Op: OpResumeSession, Req: 14,
		Body: AppendResumeSession(nil, ResumeSession{Old: 7,
			Open: OpenSession{Protocol: "taDOM2+", Isolation: 3, Depth: 4}})})
	return seeds
}

// hostileFrames builds framing-layer attack seeds: truncated frames,
// oversized length headers, and checksum damage — the inputs a resilient
// ReadFrame must reject without hanging, panicking, or over-allocating.
func hostileFrames() [][]byte {
	whole := seedFrames()
	var seeds [][]byte
	// Truncations of a valid frame at every interesting boundary: inside the
	// length prefix, inside the payload, and inside the CRC trailer.
	f := whole[0]
	for _, n := range []int{0, 1, 3, 4, 5, len(f) / 2, len(f) - 5, len(f) - 1} {
		if n < len(f) {
			seeds = append(seeds, f[:n:n])
		}
	}
	// Oversized length headers: just past MaxFrame, and the all-ones length a
	// corrupt stream is most likely to present.
	seeds = append(seeds,
		[]byte{0x01, 0x00, 0x00, 0x01}, // MaxFrame+1 big-endian
		[]byte{0xFF, 0xFF, 0xFF, 0xFF},
		[]byte{0x7F, 0xFF, 0xFF, 0xFF, 0x00})
	// A length that promises more payload than follows (blocks a naive
	// reader; ReadFrame must surface ErrUnexpectedEOF).
	seeds = append(seeds, []byte{0x00, 0x00, 0x00, 0x20, 0x01, 0x02})
	// A valid frame with its CRC trailer flipped.
	bad := append([]byte(nil), whole[1]...)
	bad[len(bad)-1] ^= 0xFF
	seeds = append(seeds, bad)
	return seeds
}

// FuzzReadFrame beats on the framing layer alone: arbitrary byte streams,
// seeded with truncated frames and hostile length headers. ReadFrame must
// return an error or a payload — never panic, never allocate beyond
// MaxFrame — and FrameReader must make of the stream exactly what ReadFrame
// makes of it, however the bytes arrive, inside the same bound.
func FuzzReadFrame(f *testing.F) {
	for _, s := range frameStreams() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReadFrame(t, data)
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("ReadFrame returned %d bytes, over MaxFrame", len(payload))
		}
	})
}

// FuzzDecodeMsg fuzzes the message layer below framing: raw payloads fed
// straight to DecodeMsg and every body decoder, including the heartbeat and
// session-resume shapes.
func FuzzDecodeMsg(f *testing.F) {
	for _, m := range []Msg{
		{Op: OpHeartbeat, Session: 3, Req: 1},
		{Op: OpResumeSession, Req: 2, Body: AppendResumeSession(nil,
			ResumeSession{Old: 9, Open: OpenSession{Protocol: "URIX", Isolation: 2, Depth: -1}})},
		{Op: OpOpenSession, Req: 3, Body: AppendOpenSession(nil,
			OpenSession{Protocol: "taDOM3+", Isolation: 3, Depth: 5})},
		{Op: OpPing, Req: 4, Body: []byte("ping")},
	} {
		f.Add(AppendMsg(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(OpResumeSession)}) // truncated header
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeMsg(payload)
		if err != nil {
			return
		}
		switch m.Op {
		case OpResumeSession:
			NewReader(m.Body).ResumeSession()
		case OpOpenSession:
			NewReader(m.Body).OpenSession()
		case OpHeartbeat, OpPing:
			// Bodies are opaque echoes; nothing to decode.
		default:
			r := NewReader(m.Body)
			r.ID()
			r.Node()
			r.Nodes()
		}
	})
}

// FuzzFrameDecode drives the full inbound pipeline — frame, message header,
// and every body decoder — over arbitrary bytes. Decoders must return errors,
// never panic or over-allocate, on hostile input.
func FuzzFrameDecode(f *testing.F) {
	for _, s := range seedFrames() {
		f.Add(s)
	}
	// Raw mutations of interest: hostile lengths and counts.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, err := DecodeMsg(payload)
		if err != nil {
			return
		}
		// Exercise every body decoder; none may panic regardless of op.
		r := NewReader(m.Body)
		switch m.Op {
		case OpOpenSession:
			r.OpenSession()
		case OpStats:
			_ = r.String() // request: protocol name
			if len(m.Body) > 0 {
				r = NewReader(m.Body[1:]) // response: status byte, counter list
				if n := len(r.Counters()); n > MaxCounters {
					t.Fatalf("decoded %d counters, over MaxCounters", n)
				}
			}
		case OpCatalog:
			NewReader(m.Body).Catalog()
		default:
			r.ID()
			r.Node()
			r.Nodes()
			r.StringList()
			_ = r.String()
			r.Uvarint()
			r.Varint()
		}
	})
}

// TestSeedCorpusDecodes pins that every seed frame survives the round trip
// the fuzzer starts from.
func TestSeedCorpusDecodes(t *testing.T) {
	for i, s := range seedFrames() {
		payload, err := ReadFrame(bytes.NewReader(s))
		if err != nil {
			t.Fatalf("seed %d: ReadFrame: %v", i, err)
		}
		if _, err := DecodeMsg(payload); err != nil {
			t.Fatalf("seed %d: DecodeMsg: %v", i, err)
		}
	}
}
