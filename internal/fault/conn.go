package fault

import (
	"fmt"
	"net"
	"time"
)

// stallFor is how long a ConnStall fault delays the I/O call: a few of them
// in a row outlast a tight keep-alive window.
const stallFor = 10 * time.Millisecond

// Conn returns c with the plan's connection faults: a drop closes the
// connection (both directions) and fails the call; a stall delays it by
// stallFor; a partial write sends half the buffer and then drops; a
// corruption flips one byte of a copy of an outgoing buffer, so the peer sees
// a CRC mismatch (or, in a length header, a frame that never completes).
func (p *Plan) Conn(c net.Conn) net.Conn { return &conn{Conn: c, p: p} }

type conn struct {
	net.Conn
	p *Plan
}

// Read implements net.Conn with drop and stall faults.
func (c *conn) Read(b []byte) (int, error) {
	if err := c.dropOrStall("read"); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

// Write implements net.Conn with drop, stall, partial-write and corruption
// faults.
func (c *conn) Write(b []byte) (int, error) {
	if err := c.dropOrStall("write"); err != nil {
		return 0, err
	}
	if len(b) > 1 {
		if f, ok := c.p.At(ConnPartial); ok {
			n, _ := c.Conn.Write(b[:len(b)/2])
			c.Conn.Close()
			return n, &Error{Fault: f, Where: fmt.Sprintf("%d of %d bytes written", n, len(b))}
		}
	}
	if len(b) > 0 {
		if f, ok := c.p.At(ConnCorrupt); ok {
			q := append([]byte(nil), b...)
			q[c.p.hash(ConnCorrupt, f.N, 2)%uint64(len(q))] ^= 0xFF
			return c.Conn.Write(q)
		}
	}
	return c.Conn.Write(b)
}

func (c *conn) dropOrStall(op string) error {
	if f, ok := c.p.At(ConnDrop); ok {
		c.Conn.Close()
		return &Error{Fault: f, Where: op}
	}
	if _, ok := c.p.At(ConnStall); ok {
		time.Sleep(stallFor)
	}
	return nil
}

// Listener wraps l so every accepted connection carries the plan's faults.
func (p *Plan) Listener(l net.Listener) net.Listener { return &listener{Listener: l, p: p} }

type listener struct {
	net.Listener
	p *Plan
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.p.Conn(c), nil
}
