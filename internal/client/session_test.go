package client_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bibserve"
	"repro/internal/client"
	"repro/internal/lock"
	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/tamix"
	"repro/internal/tx"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// shutdown drains a test server; its audit fails the test on lock residue.
func shutdown(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown audit: %v", err)
	}
}

func sameNode(a, b xmlmodel.Node) bool {
	return a.ID.Equal(b.ID) && a.Kind == b.Kind && a.Name == b.Name && bytes.Equal(a.Value, b.Value)
}

// TestTypedMethodsOverLoopback drives every typed Session method against a
// loopback xtcd and compares each answer with node.Manager.Do on a twin of
// the server's document: the stub must name the opcode and operands the
// operation table expects, and pick the right part of the result.
func TestTypedMethodsOverLoopback(t *testing.T) {
	bib := tamix.Scaled(0.01)
	srv, err := bibserve.Start(bibserve.Options{Bib: bib}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)
	pool, err := client.Dial(srv.Addr(), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s, err := pool.OpenSession("taDOM3+", tx.LevelRepeatable, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rtxn, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}

	doc, cat, err := tamix.GenerateBib(pagestore.NewMemBackend(), bib)
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	p, _ := protocol.Parse("taDOM3+")
	m := node.New(doc, p, node.Options{Depth: 7})
	defer m.Close()
	txn := m.Begin(tx.LevelRepeatable)

	// twin runs the same operation locally and hands back its result for the
	// check* helpers below to compare the remote answer with.
	twin := func(op wire.Op, a wire.Args) wire.Result {
		t.Helper()
		r, err := m.Do(txn, op, a)
		if err != nil {
			t.Fatalf("twin %s: %v", op, err)
		}
		return r
	}
	checkNode := func(op wire.Op, a wire.Args) func(xmlmodel.Node, error) xmlmodel.Node {
		return func(got xmlmodel.Node, err error) xmlmodel.Node {
			t.Helper()
			if want := twin(op, a).Node; err != nil || !sameNode(got, want) {
				t.Errorf("%s: got %+v, %v; twin %+v", op, got, err, want)
			}
			return got
		}
	}
	checkNodes := func(op wire.Op, a wire.Args) func([]xmlmodel.Node, error) {
		return func(got []xmlmodel.Node, err error) {
			t.Helper()
			want := twin(op, a).Nodes
			if err != nil || len(got) != len(want) {
				t.Errorf("%s: got %d nodes, %v; twin %d", op, len(got), err, len(want))
				return
			}
			for i := range got {
				if !sameNode(got[i], want[i]) {
					t.Errorf("%s: node %d: got %+v, twin %+v", op, i, got[i], want[i])
				}
			}
		}
	}
	checkBytes := func(op wire.Op, a wire.Args) func([]byte, error) {
		return func(got []byte, err error) {
			t.Helper()
			if want := twin(op, a).Bytes; err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: got %q, %v; twin %q", op, got, err, want)
			}
		}
	}
	checkDone := func(op wire.Op, a wire.Args) func(error) {
		return func(err error) {
			t.Helper()
			twin(op, a)
			if err != nil {
				t.Errorf("%s: %v", op, err)
			}
		}
	}

	id := cat.BookIDs[0]
	book := checkNode(wire.OpJumpToID, wire.Args{Name: id})(s.JumpToID(id))
	checkNode(wire.OpGetNode, wire.Args{ID: book.ID})(s.GetNode(book.ID))
	title := checkNode(wire.OpFirstChild, wire.Args{ID: book.ID})(s.FirstChild(book.ID))
	text := checkNode(wire.OpFirstChild, wire.Args{ID: title.ID})(s.FirstChild(title.ID))
	history := checkNode(wire.OpLastChild, wire.Args{ID: book.ID})(s.LastChild(book.ID))
	checkNode(wire.OpNextSibling, wire.Args{ID: title.ID})(s.NextSibling(title.ID))
	checkNode(wire.OpPrevSibling, wire.Args{ID: history.ID})(s.PrevSibling(history.ID))
	checkNode(wire.OpParent, wire.Args{ID: title.ID})(s.Parent(title.ID))
	checkNodes(wire.OpGetChildren, wire.Args{ID: book.ID})(s.GetChildren(book.ID))
	checkNodes(wire.OpGetAttributes, wire.Args{ID: book.ID})(s.GetAttributes(book.ID))
	checkBytes(wire.OpValue, wire.Args{ID: text.ID})(s.Value(text.ID))
	checkBytes(wire.OpAttributeValue, wire.Args{ID: book.ID, Name: "year"})(s.AttributeValue(book.ID, "year"))
	checkNodes(wire.OpReadFragment, wire.Args{ID: title.ID})(s.ReadFragment(title.ID, false))
	checkNodes(wire.OpReadFragmentForUpdate, wire.Args{ID: history.ID, Flag: true})(s.ReadFragmentForUpdate(history.ID, true))

	last, frag, err := s.UpdateLastChildFragment(book.ID)
	want := twin(wire.OpUpdateLastChildFragment, wire.Args{ID: book.ID})
	if err != nil || !sameNode(last, want.Node) || len(frag) != len(want.Nodes) {
		t.Errorf("UpdateLastChildFragment: got %+v + %d nodes, %v; twin %+v + %d", last, len(frag), err, want.Node, len(want.Nodes))
	}

	checkDone(wire.OpSetValue, wire.Args{ID: text.ID, Bytes: []byte("A New Title")})(s.SetValue(text.ID, []byte("A New Title")))
	checkBytes(wire.OpValue, wire.Args{ID: text.ID})(s.Value(text.ID))
	checkDone(wire.OpRename, wire.Args{ID: title.ID, Name: "heading"})(s.Rename(title.ID, "heading"))
	lend := checkNode(wire.OpAppendElement, wire.Args{ID: history.ID, Name: "lend"})(s.AppendElement(history.ID, "lend"))
	checkNode(wire.OpAppendText, wire.Args{ID: title.ID, Bytes: []byte("!")})(s.AppendText(title.ID, []byte("!")))
	checkNode(wire.OpInsertElementBefore, wire.Args{ID: book.ID, ID2: history.ID, Name: "note"})(s.InsertElementBefore(book.ID, history.ID, "note"))
	checkDone(wire.OpSetAttribute, wire.Args{ID: lend.ID, Name: "person", Bytes: []byte("p1")})(s.SetAttribute(lend.ID, "person", []byte("p1")))
	checkNodes(wire.OpGetAttributes, wire.Args{ID: lend.ID})(s.GetAttributes(lend.ID))
	checkDone(wire.OpDeleteSubtree, wire.Args{ID: lend.ID})(s.DeleteSubtree(lend.ID))
	checkNodes(wire.OpGetChildren, wire.Args{ID: book.ID})(s.GetChildren(book.ID))

	if err := rtxn.Commit(); err != nil {
		t.Errorf("remote commit: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Errorf("twin commit: %v", err)
	}
	if err := pool.Audit("taDOM3+"); err != nil {
		t.Errorf("server audit: %v", err)
	}
}

// TestRequestDeadlineBoundsLockWait sends the only non-zero per-request
// deadline any test sends: session A holds a write lock, session B stamps
// its requests with a 50 ms budget (Session.SetRequestDeadline → Msg.DeadlineMS
// → the server layers it onto the session context and the lock wait) and asks
// for the same node. B must get the canceled sentinel, abort-worthy, long
// before the engine's 5 s lock timeout, and nothing may be left behind.
func TestRequestDeadlineBoundsLockWait(t *testing.T) {
	srv, err := bibserve.Start(bibserve.Options{Bib: tamix.Scaled(0.01)}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)
	pool, err := client.Dial(srv.Addr(), client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	open := func() (*client.Session, *client.Txn) {
		t.Helper()
		s, err := pool.OpenSession("taDOM3+", tx.LevelRepeatable, 7)
		if err != nil {
			t.Fatal(err)
		}
		txn, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return s, txn
	}

	a, atxn := open()
	defer a.Close()
	cat, err := a.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	book, err := a.JumpToID(cat.Books[0])
	if err != nil {
		t.Fatal(err)
	}
	title, err := a.FirstChild(book.ID)
	if err != nil {
		t.Fatal(err)
	}
	text, err := a.FirstChild(title.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetValue(text.ID, []byte("held by A")); err != nil {
		t.Fatal(err)
	}

	b, btxn := open()
	defer b.Close()
	b.SetRequestDeadline(50 * time.Millisecond)
	t0 := time.Now()
	_, err = b.Value(text.ID)
	waited := time.Since(t0)
	if !errors.Is(err, lock.ErrCanceled) {
		t.Errorf("read under A's write lock with a 50ms deadline: %v, want lock.ErrCanceled", err)
	}
	if !node.IsAbortWorthy(err) {
		t.Errorf("deadline error %v is not abort-worthy", err)
	}
	if waited < 40*time.Millisecond || waited > 2*time.Second {
		t.Errorf("request returned after %v, want about its 50ms budget (lock timeout is 5s)", waited)
	}
	if err := btxn.Abort(); err != nil {
		t.Errorf("abort B: %v", err)
	}

	// Without a deadline the same read simply waits for A.
	b.SetRequestDeadline(0)
	if err := atxn.Commit(); err != nil {
		t.Errorf("commit A: %v", err)
	}
	if btxn, err = b.Begin(); err != nil {
		t.Fatal(err)
	}
	if v, err := b.Value(text.ID); err != nil || string(v) != "held by A" {
		t.Errorf("read after A committed: %q, %v", v, err)
	}
	if err := btxn.Commit(); err != nil {
		t.Errorf("commit B: %v", err)
	}
	if err := pool.Audit("taDOM3+"); err != nil {
		t.Errorf("server audit: %v", err)
	}
}
