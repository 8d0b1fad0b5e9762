package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{},
		{0x01},
		bytes.Repeat([]byte{0xAB}, 1000),
		AppendMsg(nil, Msg{Op: OpBegin, Session: 7, Req: 42, DeadlineMS: 1500, Body: []byte("x")}),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %x want %x", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestFrameCRCDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello xtcd")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[6] ^= 0x40 // flip one payload bit
	_, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrCRC) {
		t.Fatalf("expected ErrCRC, got %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("partial")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	// A forged length prefix beyond MaxFrame must be rejected before any
	// allocation of that size.
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00}
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge on write, got %v", err)
	}
}

func TestMsgRoundTrip(t *testing.T) {
	m := Msg{Op: OpReadFragment, Session: 3, Req: 99, DeadlineMS: 250, Body: []byte{1, 2, 3}}
	got, err := DecodeMsg(AppendMsg(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != m.Op || got.Session != m.Session || got.Req != m.Req ||
		got.DeadlineMS != m.DeadlineMS || !bytes.Equal(got.Body, m.Body) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	if _, err := DecodeMsg([]byte{1, 2}); !errors.Is(err, ErrShort) {
		t.Fatalf("expected ErrShort, got %v", err)
	}
}

func TestBodyCodecRoundTrip(t *testing.T) {
	id := splid.MustParse("1.17.5")
	nodes := []xmlmodel.Node{
		{ID: id, Kind: xmlmodel.KindElement, Name: 7},
		{ID: id.Child(3), Kind: xmlmodel.KindText, Value: []byte("body text")},
		{}, // null node (edge leads nowhere)
	}
	var b []byte
	b = AppendUvarint(b, 1234567)
	b = AppendVarint(b, -42)
	b = AppendString(b, "taDOM3+")
	b = AppendID(b, id)
	b = AppendID(b, splid.ID{})
	b = AppendNodes(b, nodes)
	b = AppendCatalog(b, Catalog{Books: []string{"b0-0", "b0-1"}, Topics: []string{"t0"}, Persons: nil})
	b, err := AppendCounters(b, map[string]uint64{"lock.requests": 10, "lock.deadlocks": 2, "tx.committed": 5})
	if err != nil {
		t.Fatal(err)
	}
	b = AppendOpenSession(b, OpenSession{Protocol: "URIX", Isolation: 3, Depth: -1})
	b = AppendResumeSession(b, ResumeSession{Old: 99,
		Open: OpenSession{Protocol: "taDOM2+", Isolation: 2, Depth: 4}})

	r := NewReader(b)
	if v := r.Uvarint(); v != 1234567 {
		t.Fatalf("uvarint: %d", v)
	}
	if v := r.Varint(); v != -42 {
		t.Fatalf("varint: %d", v)
	}
	if s := r.String(); s != "taDOM3+" {
		t.Fatalf("string: %q", s)
	}
	if got := r.ID(); !got.Equal(id) {
		t.Fatalf("id: %v", got)
	}
	if got := r.ID(); !got.IsNull() {
		t.Fatalf("null id: %v", got)
	}
	ns := r.Nodes()
	if len(ns) != len(nodes) {
		t.Fatalf("nodes: %d", len(ns))
	}
	if !ns[0].ID.Equal(id) || ns[0].Kind != xmlmodel.KindElement || ns[0].Name != 7 {
		t.Fatalf("node 0: %+v", ns[0])
	}
	if string(ns[1].Value) != "body text" {
		t.Fatalf("node 1 value: %q", ns[1].Value)
	}
	if !ns[2].ID.IsNull() {
		t.Fatalf("node 2 not null: %+v", ns[2])
	}
	cat := r.Catalog()
	if len(cat.Books) != 2 || cat.Topics[0] != "t0" || len(cat.Persons) != 0 {
		t.Fatalf("catalog: %+v", cat)
	}
	st := r.Counters()
	if len(st) != 3 || st["lock.requests"] != 10 || st["lock.deadlocks"] != 2 || st["tx.committed"] != 5 {
		t.Fatalf("counters: %+v", st)
	}
	os := r.OpenSession()
	if os.Protocol != "URIX" || os.Isolation != 3 || os.Depth != -1 {
		t.Fatalf("open session: %+v", os)
	}
	rs := r.ResumeSession()
	if rs.Old != 99 || rs.Open.Protocol != "taDOM2+" || rs.Open.Isolation != 2 || rs.Open.Depth != 4 {
		t.Fatalf("resume session: %+v", rs)
	}
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left", r.Len())
	}
}

// TestCountersGolden pins the OpStats response body: count, then (name,
// uvarint) pairs in ascending name order whatever order the map yields.
func TestCountersGolden(t *testing.T) {
	got, err := AppendCounters(nil, map[string]uint64{"tx.begun": 300, "lock.waits": 0, "lock.requests": 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	const want = "03" + "0d6c6f636b2e7265717565737473" + "808080808020" + "0a6c6f636b2e7761697473" + "00" + "0874782e626567756e" + "ac02"
	if hex.EncodeToString(got) != want {
		t.Fatalf("OpStats body\n got %x\nwant %s", got, want)
	}
	if empty, err := AppendCounters(nil, nil); err != nil || !bytes.Equal(empty, []byte{0}) {
		t.Fatalf("empty counter list: %x, %v", empty, err)
	}
	over := map[string]uint64{}
	for i := 0; i <= MaxCounters; i++ {
		over[fmt.Sprint("c", i)] = 1
	}
	if _, err := AppendCounters(nil, over); err == nil {
		t.Fatal("a counter set beyond MaxCounters was encoded")
	}
}

// TestCountersRejectsHostileBodies: every malformed OpStats body is an error
// — never a panic, never an allocation sized by the body's own count.
func TestCountersRejectsHostileBodies(t *testing.T) {
	pair := func(name string, v uint64) []byte { return AppendUvarint(AppendString(nil, name), v) }
	cases := map[string][]byte{
		"count beyond the cap":       append(AppendUvarint(nil, MaxCounters+1), make([]byte, 4*MaxCounters)...),
		"count beyond the body":      append(AppendUvarint(nil, 1000), pair("a", 1)...),
		"count of 2^40":              AppendUvarint(nil, 1<<40),
		"name length past the frame": append(AppendUvarint(AppendUvarint(nil, 1), 1<<30), 'x', 1),
		"truncated name":             append(AppendUvarint(nil, 1), 5, 'l', 'o'),
		"missing value":              append(AppendUvarint(nil, 1), AppendString(nil, "lock.waits")...),
		"truncated varint":           append(append(AppendUvarint(nil, 1), AppendString(nil, "n")...), 0x80, 0x80),
		"overlong varint":            append(append(AppendUvarint(nil, 1), AppendString(nil, "n")...), bytes.Repeat([]byte{0xFF}, 11)...),
		"duplicate name":             append(append(AppendUvarint(nil, 2), pair("a", 1)...), pair("a", 2)...),
		"names out of order":         append(append(AppendUvarint(nil, 2), pair("b", 1)...), pair("a", 2)...),
		"second pair cut mid-name":   append(append(AppendUvarint(nil, 2), pair("a", 1)...), 9, 'b'),
		"empty body":                 nil,
		"one pair in one byte":       {1, 0},
	}
	for name, body := range cases {
		r := NewReader(body)
		if got := r.Counters(); got != nil || r.Err() == nil {
			t.Errorf("%s: accepted as %v", name, got)
		}
		// A hostile count is refused before anything is sized by it: a map
		// for MaxCounters entries alone would be tens of KiB.
		if strings.HasPrefix(name, "count") {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			NewReader(body).Counters()
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
				t.Errorf("%s: %d bytes allocated for a rejected count", name, n)
			}
		}
	}
	// The well-formed neighbours of the cases above decode.
	r := NewReader(append(AppendUvarint(nil, 2), append(pair("", 7), pair("a", 1<<63)...)...))
	if got := r.Counters(); r.Err() != nil || len(got) != 2 || got[""] != 7 || got["a"] != 1<<63 || r.Len() != 0 {
		t.Fatalf("well-formed body: %v, err=%v, %d bytes left", got, r.Err(), r.Len())
	}
}

func TestReaderRejectsHostileCounts(t *testing.T) {
	// A node-list count far beyond the remaining bytes must fail, not
	// allocate.
	b := AppendUvarint(nil, 1<<40)
	r := NewReader(b)
	if ns := r.Nodes(); ns != nil || r.Err() == nil {
		t.Fatalf("hostile node count accepted: %v, err=%v", ns, r.Err())
	}
	r = NewReader(b)
	if ss := r.StringList(); ss != nil || r.Err() == nil {
		t.Fatalf("hostile string count accepted: %v, err=%v", ss, r.Err())
	}
	// Truncated bytes field.
	r = NewReader(AppendUvarint(nil, 100))
	if v := r.Bytes(); v != nil || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("truncated bytes accepted: %v, err=%v", v, r.Err())
	}
}
