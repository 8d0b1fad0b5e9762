package client

import "repro/internal/wire"

// PingRoundTrip round-trips one OpPing frame on a pooled connection:
// transport and nothing else, for the allocation guard.
func PingRoundTrip(p *Pool) error {
	c, err := p.conn()
	if err != nil {
		return err
	}
	_, err = c.roundTrip(wire.OpPing, 0, []byte("ping"))
	return err
}
