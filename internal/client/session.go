package client

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/splid"
	"repro/internal/tx"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// Session is one server-side session: a protocol choice and at most one
// active transaction. A session must stay on a single goroutine, mirroring
// the engine's one-goroutine-per-transaction rule.
//
// A session is bound to one pool slot. When that slot's connection dies
// mid-call, the session transparently re-establishes itself on the slot's
// replacement connection (OpResumeSession) and the interrupted call returns
// an ErrConnLost-based, abort-worthy error — the transaction is gone, the
// session handle lives on.
type Session struct {
	pool     *Pool
	sl       *slot
	c        *Conn
	id       uint32
	protocol string
	iso      tx.Level
	depth    int
	deadline uint32 // per-request deadline-ms (0 = none)

	// box is the session's reusable reply slot on c: at most a deferred Begin
	// and one operation are in flight, so it has room for two.
	box chan reply
	// txn is the transaction Begin last handed out. While beginQueued is set
	// its OpBegin frame has not been written: it leaves in the same Write as
	// the session's next request.
	txn         *Txn
	beginQueued bool

	// resumeFate/resumeFateTxn hold the fate report from the most recent
	// session resume: what became of the transaction that was in flight when
	// the old connection died. Commit consults them to turn an interrupted
	// commit round trip into its true outcome.
	resumeFate    uint8
	resumeFateTxn uint64
}

// OpenSession creates a session running the named protocol at the given
// isolation and lock depth. Sessions stripe round-robin across the pool's
// connections.
func (p *Pool) OpenSession(protocol string, iso tx.Level, depth int) (*Session, error) {
	sl := p.slot()
	c, err := sl.get()
	if err != nil {
		return nil, err
	}
	body := wire.AppendOpenSession(nil, wire.OpenSession{
		Protocol: protocol, Isolation: uint8(iso), Depth: depth,
	})
	resp, err := c.roundTrip(wire.OpOpenSession, 0, body)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(resp)
	id := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &Session{pool: p, sl: sl, c: c, id: uint32(id), box: make(chan reply, 2),
		protocol: protocol, iso: iso, depth: depth}, nil
}

// Protocol returns the protocol name the session was opened with.
func (s *Session) Protocol() string { return s.protocol }

// SetRequestDeadline stamps every further request of the session with a
// deadline-ms budget, so the server bounds lock waits on its behalf (0, the
// default, disables).
func (s *Session) SetRequestDeadline(d time.Duration) {
	if d <= 0 {
		s.deadline = 0
		return
	}
	s.deadline = uint32(d.Milliseconds())
}

// call round-trips one session-scoped request, timing it into the pool's
// latency histogram. A connection-level failure triggers the resume path:
// redial (via the slot) and re-open the session, then report the
// interrupted call as abort-worthy so the caller restarts its transaction.
// The exception is a call that carried its transaction's Begin: nothing of
// that transaction was acknowledged — whatever the lost frames started, the
// resume's eviction rolled back — so it is started again on the resumed
// session and the caller never sees the bounce. A commit is never repeated;
// its fate report decides.
func (s *Session) call(op wire.Op, shape wire.ArgShape, a wire.Args) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		carried := s.beginQueued
		t0 := s.pool.mLatency.Start()
		resp, err := s.exchange(op, shape, a)
		s.pool.mLatency.Since(t0)
		if err == nil || !s.shouldResume(err) {
			return resp, err
		}
		s.beginQueued = carried
		if rerr := s.resume(); rerr != nil {
			return nil, fmt.Errorf("client: %s: %w (reconnect failed: %v)", op, err, rerr)
		}
		s.pool.mReconnects.Add(1)
		if !carried || op == wire.OpCommit || attempt == 4 {
			return nil, &abortWorthyError{fmt.Errorf(
				"%w: %s interrupted (session resumed as %d): %v", ErrConnLost, op, s.id, err)}
		}
	}
}

// exchange sends one request, behind the queued Begin if there is one (op ==
// OpBegin sends that Begin alone). A failed Begin is the call's error:
// whatever the operation behind it answered says nothing new.
func (s *Session) exchange(op wire.Op, shape wire.ArgShape, a wire.Args) ([]byte, error) {
	begin := s.beginQueued && op != wire.OpBegin
	s.beginQueued = false
	hdr := wire.Msg{Op: op, Session: s.id, DeadlineMS: s.deadline}
	r, bgn, err := s.c.exchange(s.box, begin, hdr, shape, a)
	if err != nil {
		return nil, err
	}
	if begin {
		id, err := bgn.result(wire.OpBegin)
		if err == nil {
			err = s.txn.setID(id)
		}
		if err != nil {
			return nil, err
		}
	}
	return r.result(op)
}

// shouldResume reports whether a call failure means "session-level death
// worth resuming from": the conn died, the server is bouncing, or the
// server forgot the session (idle reap) — and the pool is still open.
func (s *Session) shouldResume(err error) bool {
	return (errors.Is(err, ErrShutdown) || errors.Is(err, ErrNoSession)) && !s.pool.isClosed()
}

// resume re-establishes the session after a connection loss: get a live
// connection from the session's slot (redialing under its backoff), then
// ask the server to resume — evicting the stale predecessor session if the
// server still holds it — retrying through drain windows and busy rejections
// under the redial backoff until redialBudget runs out.
func (s *Session) resume() error {
	backoff := redialBackoff
	deadline := time.Now().Add(redialBudget)
	var lastErr error
	for {
		if s.pool.isClosed() {
			return ErrShutdown
		}
		c, err := s.sl.get()
		if err == nil {
			body := wire.AppendResumeSession(nil, wire.ResumeSession{
				Old: s.id,
				Open: wire.OpenSession{
					Protocol: s.protocol, Isolation: uint8(s.iso), Depth: s.depth,
				},
			})
			resp, rerr := c.roundTrip(wire.OpResumeSession, 0, body)
			if rerr == nil {
				r := wire.NewReader(resp)
				rr := r.ResumeResult()
				if err := r.Err(); err != nil {
					return err
				}
				// A fresh slot: replies the dead connection left in the old
				// one must not answer requests on this one.
				s.c, s.id, s.box = c, rr.ID, make(chan reply, 2)
				s.resumeFate, s.resumeFateTxn = rr.Fate, rr.FateTxn
				return nil
			}
			if !errors.Is(rerr, ErrShutdown) && !errors.Is(rerr, ErrBusy) {
				return rerr // rejected outright (bad request, engine failure)
			}
			err = rerr
		}
		lastErr = err
		if !time.Now().Before(deadline) {
			return fmt.Errorf("client: session resume: %w", lastErr)
		}
		backoff = backoffSleep(backoff, redialMaxBackoff)
	}
}

// Close ends the session, aborting any active transaction server-side. A
// dead connection counts as closed — the server reaps the session on its
// own — so Close never triggers a redial.
func (s *Session) Close() error {
	_, err := s.c.roundTrip(wire.OpCloseSession, s.id, nil)
	if err != nil && (errors.Is(err, ErrShutdown) || errors.Is(err, ErrNoSession)) {
		return nil
	}
	return err
}

// Txn is a server-side transaction handle. It satisfies the same
// ID/Commit/Abort surface as *tx.Txn.
type Txn struct {
	s  *Session
	id uint64
}

// setID records the transaction id a Begin reply carries.
func (t *Txn) setID(resp []byte) error {
	r := wire.NewReader(resp)
	t.id = r.Uvarint()
	return r.Err()
}

// ID returns the server-assigned transaction id. Asked before the
// transaction's first request, it sends the queued Begin on its own and
// waits; a Begin that fails leaves 0 here and stays queued, so that first
// request meets the server's refusal itself.
func (t *Txn) ID() uint64 {
	if s := t.s; s.txn == t && s.beginQueued {
		resp, err := s.call(wire.OpBegin, 0, wire.Args{})
		if err == nil {
			err = t.setID(resp)
		}
		s.beginQueued = err != nil
	}
	return t.id
}

// Commit commits the transaction. A commit whose round trip is severed by a
// connection loss is not guessed at: the resume's fate report says whether
// the server committed it before the session died. A reported commit returns
// nil — the transaction landed exactly once — and anything else surfaces the
// abort-worthy error as before.
func (t *Txn) Commit() error {
	_, err := t.s.call(wire.OpCommit, 0, wire.Args{})
	if err != nil && errors.Is(err, ErrConnLost) &&
		t.s.resumeFateTxn == t.id && t.s.resumeFate == wire.FateCommitted {
		return nil
	}
	return err
}

// Abort rolls the transaction back. A transaction lost to a connection
// bounce is already aborted server-side (session teardown released its
// locks), so an abort interrupted by a resume reports success — and one whose
// Begin was never written has nothing to roll back.
func (t *Txn) Abort() error {
	if s := t.s; s.txn == t && s.beginQueued {
		s.beginQueued = false
		return nil
	}
	_, err := t.s.call(wire.OpAbort, 0, wire.Args{})
	if err != nil && errors.Is(err, ErrConnLost) {
		return nil
	}
	return err
}

// Begin starts a transaction on the session (one at a time) without a round
// trip of its own: the OpBegin frame leaves in the same Write as the
// session's next request, and a Begin the server refuses fails that request
// with the server's error.
func (s *Session) Begin() (*Txn, error) {
	s.txn, s.beginQueued = &Txn{s: s}, true
	return s.txn, nil
}

// Catalog fetches the engine's jump-target catalog.
func (s *Session) Catalog() (wire.Catalog, error) {
	resp, err := s.call(wire.OpCatalog, 0, wire.Args{})
	if err != nil {
		return wire.Catalog{}, err
	}
	r := wire.NewReader(resp)
	cat := r.Catalog()
	return cat, r.Err()
}

// LookupName resolves a vocabulary name to its surrogate.
func (s *Session) LookupName(name string) (xmlmodel.Sur, bool, error) {
	resp, err := s.call(wire.OpLookupName, wire.ArgName, wire.Args{Name: name})
	if err != nil {
		return 0, false, err
	}
	r := wire.NewReader(resp)
	found := r.Byte() != 0
	sur := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, false, err
	}
	return xmlmodel.Sur(sur), found, nil
}

// Do round-trips one node operation: the request body is encoded and the
// response decoded by the shapes the operation table declares for op. The
// typed methods below are this call with the operands named. Node values and
// Bytes in the result alias the response frame, which nothing else holds.
func (s *Session) Do(op wire.Op, a wire.Args) (wire.Result, error) {
	spec, _ := op.Spec()
	resp, err := s.call(op, spec.Args, a)
	if err != nil {
		return wire.Result{}, err
	}
	return wire.DecodeResult(spec.Result, resp)
}

func oneNode(r wire.Result, err error) (xmlmodel.Node, error)    { return r.Node, err }
func nodeList(r wire.Result, err error) ([]xmlmodel.Node, error) { return r.Nodes, err }
func value(r wire.Result, err error) ([]byte, error)             { return r.Bytes, err }
func done(_ wire.Result, err error) error                        { return err }

// GetNode fetches one node by SPLID.
func (s *Session) GetNode(id splid.ID) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpGetNode, wire.Args{ID: id}))
}

// JumpToID resolves an ID-attribute value to its element.
func (s *Session) JumpToID(value string) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpJumpToID, wire.Args{Name: value}))
}

// FirstChild returns the first regular child (null-ID node when none).
func (s *Session) FirstChild(id splid.ID) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpFirstChild, wire.Args{ID: id}))
}

// LastChild returns the last regular child.
func (s *Session) LastChild(id splid.ID) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpLastChild, wire.Args{ID: id}))
}

// NextSibling returns the following sibling.
func (s *Session) NextSibling(id splid.ID) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpNextSibling, wire.Args{ID: id}))
}

// PrevSibling returns the preceding sibling.
func (s *Session) PrevSibling(id splid.ID) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpPrevSibling, wire.Args{ID: id}))
}

// Parent returns the parent node (null-ID node for the root).
func (s *Session) Parent(id splid.ID) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpParent, wire.Args{ID: id}))
}

// GetChildren returns the regular children of a node.
func (s *Session) GetChildren(id splid.ID) ([]xmlmodel.Node, error) {
	return nodeList(s.Do(wire.OpGetChildren, wire.Args{ID: id}))
}

// GetAttributes returns an element's attributes.
func (s *Session) GetAttributes(el splid.ID) ([]xmlmodel.Node, error) {
	return nodeList(s.Do(wire.OpGetAttributes, wire.Args{ID: el}))
}

// Value reads one node's value.
func (s *Session) Value(id splid.ID) ([]byte, error) {
	return value(s.Do(wire.OpValue, wire.Args{ID: id}))
}

// AttributeValue reads one attribute's value by name.
func (s *Session) AttributeValue(el splid.ID, name string) ([]byte, error) {
	return value(s.Do(wire.OpAttributeValue, wire.Args{ID: el, Name: name}))
}

// ReadFragment scans a subtree in document order.
func (s *Session) ReadFragment(id splid.ID, jump bool) ([]xmlmodel.Node, error) {
	return nodeList(s.Do(wire.OpReadFragment, wire.Args{ID: id, Flag: jump}))
}

// ReadFragmentForUpdate scans a subtree under update-mode locks.
func (s *Session) ReadFragmentForUpdate(id splid.ID, jump bool) ([]xmlmodel.Node, error) {
	return nodeList(s.Do(wire.OpReadFragmentForUpdate, wire.Args{ID: id, Flag: jump}))
}

// UpdateLastChildFragment locks and reads the last child's subtree for
// update, returning the child and its fragment.
func (s *Session) UpdateLastChildFragment(id splid.ID) (xmlmodel.Node, []xmlmodel.Node, error) {
	r, err := s.Do(wire.OpUpdateLastChildFragment, wire.Args{ID: id})
	return r.Node, r.Nodes, err
}

// SetValue overwrites one node's value.
func (s *Session) SetValue(id splid.ID, value []byte) error {
	return done(s.Do(wire.OpSetValue, wire.Args{ID: id, Bytes: value}))
}

// Rename changes an element's name.
func (s *Session) Rename(id splid.ID, newName string) error {
	return done(s.Do(wire.OpRename, wire.Args{ID: id, Name: newName}))
}

// AppendElement appends a child element.
func (s *Session) AppendElement(parent splid.ID, name string) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpAppendElement, wire.Args{ID: parent, Name: name}))
}

// AppendText appends a text child.
func (s *Session) AppendText(parent splid.ID, value []byte) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpAppendText, wire.Args{ID: parent, Bytes: value}))
}

// InsertElementBefore inserts a child element before a sibling.
func (s *Session) InsertElementBefore(parent, before splid.ID, name string) (xmlmodel.Node, error) {
	return oneNode(s.Do(wire.OpInsertElementBefore, wire.Args{ID: parent, ID2: before, Name: name}))
}

// SetAttribute sets (inserting or overwriting) an attribute.
func (s *Session) SetAttribute(el splid.ID, name string, value []byte) error {
	return done(s.Do(wire.OpSetAttribute, wire.Args{ID: el, Name: name, Bytes: value}))
}

// DeleteSubtree deletes a node and its subtree.
func (s *Session) DeleteSubtree(id splid.ID) error {
	return done(s.Do(wire.OpDeleteSubtree, wire.Args{ID: id}))
}
