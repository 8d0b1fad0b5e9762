package fault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pipePair builds a loopback TCP pair so the wrapper runs over a real
// net.Conn (Close semantics, deadlines).
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var (
		server net.Conn
		serr   error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, serr = l.Accept()
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serr != nil {
		t.Fatal(serr)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// always is an armed plan that faults every occurrence of the given sites.
func always(seed int64, sites ...Site) *Plan {
	p := &Plan{Seed: seed}
	for _, s := range sites {
		p.Prob[s] = 1
	}
	p.Arm()
	return p
}

func TestDisarmedIsTransparent(t *testing.T) {
	a, b := pipePair(t)
	p := always(1, ConnDrop, ConnPartial, ConnCorrupt, ConnStall)
	p.Disarm()
	fc := p.Conn(a)
	msg := []byte("hello through the storm")
	if _, err := fc.Write(msg); err != nil {
		t.Fatalf("disarmed write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatalf("peer read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("disarmed wrapper altered bytes: %q != %q", got, msg)
	}
	if p.Injected() != 0 {
		t.Fatalf("disarmed wrapper counted %d faults", p.Injected())
	}
}

func TestDropKillsConnection(t *testing.T) {
	a, b := pipePair(t)
	p := always(7, ConnDrop)
	_, err := p.Conn(a).Write([]byte("doomed"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// The peer must observe the death, not a hang.
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after drop")
	}
	if p.Fired(ConnDrop) == 0 {
		t.Fatal("drop not counted")
	}
}

// TestPartialWriteTruncates schedules the second write to be cut short: the
// first passes whole, the second sends half and kills the connection, and
// the plan counts exactly one fault.
func TestPartialWriteTruncates(t *testing.T) {
	a, b := pipePair(t)
	p := &Plan{Schedule: []Fault{{Site: ConnPartial, N: 2}}}
	p.Arm()
	fc := p.Conn(a)
	whole := []byte("first")
	if _, err := fc.Write(whole); err != nil {
		t.Fatalf("unscheduled write: %v", err)
	}
	msg := []byte("0123456789abcdef")
	n, err := fc.Write(msg)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if n != len(msg)/2 {
		t.Fatalf("partial wrote %d bytes, want %d", n, len(msg)/2)
	}
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(b)
	if want := append(whole, msg[:len(msg)/2]...); !bytes.Equal(got, want) {
		t.Fatalf("peer got %q, want %q", got, want)
	}
	if p.Seen(ConnPartial) != 2 || p.Injected() != 1 {
		t.Fatalf("seen %d partial-write occurrences, injected %d faults; want 2 and 1",
			p.Seen(ConnPartial), p.Injected())
	}
}

func TestCorruptFlipsOneByteOnCopy(t *testing.T) {
	a, b := pipePair(t)
	p := always(11, ConnCorrupt)
	msg := []byte("pristine payload bytes")
	orig := append([]byte(nil), msg...)
	if _, err := p.Conn(a).Write(msg); err != nil {
		t.Fatalf("corrupt write: %v", err)
	}
	if !bytes.Equal(msg, orig) {
		t.Fatal("caller's buffer was mutated")
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d bytes, want exactly 1", diff)
	}
	if p.Fired(ConnCorrupt) == 0 {
		t.Fatal("corruption not counted")
	}
}

func TestStallDelays(t *testing.T) {
	a, b := pipePair(t)
	p := always(5, ConnStall)
	t0 := time.Now()
	if _, err := p.Conn(a).Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < stallFor {
		t.Fatalf("write returned after %v, want >= %v stall", d, stallFor)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if p.Fired(ConnStall) == 0 {
		t.Fatal("stall not counted")
	}
}

// TestDeterministicSchedule: two plans with the same seed agree call by call
// on whether each write faults, across fresh connections.
func TestDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		p := &Plan{Seed: 42}
		p.Prob[ConnDrop] = 0.3
		p.Arm()
		var outcomes []bool
		for i := 0; i < 16; i++ {
			a, _ := pipePair(t)
			_, err := p.Conn(a).Write([]byte("x"))
			outcomes = append(outcomes, errors.Is(err, ErrInjected))
		}
		return outcomes
	}
	x, y := run(), run()
	drops := 0
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("schedules diverge at call %d: %v vs %v", i, x, y)
		}
		if x[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(x) {
		t.Fatalf("%d of %d writes dropped at p=0.3", drops, len(x))
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := always(9, ConnDrop)
	p.Disarm()
	fl := p.Listener(l)
	defer fl.Close()
	go func() {
		c, err := net.Dial("tcp", l.Addr().String())
		if err == nil {
			c.Write([]byte("hi"))
			c.Close()
		}
	}()
	c, err := fl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p.Arm()
	if _, err := c.Read(make([]byte, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected read drop, got %v", err)
	}
}
