package server

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/tamix"
	"repro/internal/tx"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// newBibEngine builds an engine over a small, seed-stable bib document.
func newBibEngine(t testing.TB) (*Engine, *tamix.Catalog) {
	t.Helper()
	doc, cat, err := tamix.GenerateBib(pagestore.NewMemBackend(), tamix.Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	p, err := protocol.Parse("taDOM3+")
	if err != nil {
		t.Fatal(err)
	}
	mgr := node.New(doc, p, node.Options{Depth: 7})
	t.Cleanup(func() {
		mgr.Close()
		doc.Close()
	})
	return &Engine{Mgr: mgr}, cat
}

// wired drives a session's execute path without a socket: the request body is
// encoded by the op's argument shape, dispatched, and the response decoded by
// its result shape — exactly what a client round trip does around the wire,
// into buffers that are reused like a connection's frame buffers.
type wired struct {
	srv       *Server
	sess      *session
	req, resp []byte
}

func newWired(t testing.TB, eng *Engine) *wired {
	w := &wired{srv: &Server{}, sess: &session{eng: eng, iso: tx.LevelRepeatable}}
	if _, err := w.srv.execute(w.sess, wire.Msg{Op: wire.OpBegin}, context.Background()); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *wired) do(op wire.Op, a wire.Args) (wire.Result, error) {
	spec, _ := op.Spec()
	w.req = wire.AppendArgs(w.req[:0], spec.Args, a)
	resp, err := w.srv.execute(w.sess, wire.Msg{Op: op, Body: w.req}, context.Background())
	if err != nil {
		return wire.Result{}, err
	}
	w.resp = resp.appendTo(w.resp[:0])
	return wire.DecodeResult(spec.Result, w.resp)
}

func sameNode(a, b xmlmodel.Node) bool {
	return a.ID.Equal(b.ID) && a.Kind == b.Kind && a.Name == b.Name && bytes.Equal(a.Value, b.Value)
}

func sameResult(a, b wire.Result) bool {
	if !sameNode(a.Node, b.Node) || !bytes.Equal(a.Bytes, b.Bytes) || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if !sameNode(a.Nodes[i], b.Nodes[i]) {
			return false
		}
	}
	return true
}

// TestEveryOpOverTheWire runs every row of the operation table through
// encode → dispatch → decode on one engine and through the typed
// node.Manager method on an identical twin, and demands the same results and
// — after commit — the same document.
func TestEveryOpOverTheWire(t *testing.T) {
	wireEng, cat := newBibEngine(t)
	twinEng, _ := newBibEngine(t)
	w := newWired(t, wireEng)
	m := twinEng.Mgr
	txn := m.Begin(tx.LevelRepeatable)

	// Landmarks, identical in both documents.
	bookID := cat.BookIDs[0]
	book, err := m.JumpToID(txn, bookID)
	if err != nil {
		t.Fatal(err)
	}
	title, _ := m.FirstChild(txn, book.ID)
	titleText, _ := m.FirstChild(txn, title.ID)
	history, _ := m.LastChild(txn, book.ID)
	lend, err := m.FirstChild(txn, history.ID)
	if err != nil || lend.ID.IsNull() || titleText.Kind != xmlmodel.KindText {
		t.Fatalf("bib landmarks: lend=%v titleText=%v err=%v", lend, titleText, err)
	}

	one := func(n xmlmodel.Node, err error) (wire.Result, error) { return wire.Result{Node: n}, err }
	list := func(ns []xmlmodel.Node, err error) (wire.Result, error) { return wire.Result{Nodes: ns}, err }
	val := func(b []byte, err error) (wire.Result, error) { return wire.Result{Bytes: b}, err }
	none := func(err error) (wire.Result, error) { return wire.Result{}, err }

	cases := []struct {
		op     wire.Op
		args   wire.Args
		direct func() (wire.Result, error)
	}{
		{wire.OpGetNode, wire.Args{ID: book.ID}, func() (wire.Result, error) { return one(m.GetNode(txn, book.ID)) }},
		{wire.OpJumpToID, wire.Args{Name: bookID}, func() (wire.Result, error) { return one(m.JumpToID(txn, bookID)) }},
		{wire.OpFirstChild, wire.Args{ID: book.ID}, func() (wire.Result, error) { return one(m.FirstChild(txn, book.ID)) }},
		{wire.OpFirstChild, wire.Args{ID: titleText.ID}, func() (wire.Result, error) { return one(m.FirstChild(txn, titleText.ID)) }},
		{wire.OpLastChild, wire.Args{ID: book.ID}, func() (wire.Result, error) { return one(m.LastChild(txn, book.ID)) }},
		{wire.OpNextSibling, wire.Args{ID: title.ID}, func() (wire.Result, error) { return one(m.NextSibling(txn, title.ID)) }},
		{wire.OpPrevSibling, wire.Args{ID: history.ID}, func() (wire.Result, error) { return one(m.PrevSibling(txn, history.ID)) }},
		{wire.OpParent, wire.Args{ID: title.ID}, func() (wire.Result, error) { return one(m.Parent(txn, title.ID)) }},
		{wire.OpParent, wire.Args{ID: splid.Root()}, func() (wire.Result, error) { return one(m.Parent(txn, splid.Root())) }},
		{wire.OpGetChildren, wire.Args{ID: book.ID}, func() (wire.Result, error) { return list(m.GetChildren(txn, book.ID)) }},
		{wire.OpGetAttributes, wire.Args{ID: book.ID}, func() (wire.Result, error) { return list(m.GetAttributes(txn, book.ID)) }},
		{wire.OpGetAttributes, wire.Args{ID: title.ID}, func() (wire.Result, error) { return list(m.GetAttributes(txn, title.ID)) }},
		{wire.OpValue, wire.Args{ID: titleText.ID}, func() (wire.Result, error) { return val(m.Value(txn, titleText.ID)) }},
		{wire.OpAttributeValue, wire.Args{ID: book.ID, Name: "year"}, func() (wire.Result, error) { return val(m.AttributeValue(txn, book.ID, "year")) }},
		{wire.OpAttributeValue, wire.Args{ID: book.ID, Name: "nope"}, func() (wire.Result, error) { return val(m.AttributeValue(txn, book.ID, "nope")) }},
		{wire.OpReadFragment, wire.Args{ID: title.ID}, func() (wire.Result, error) { return list(m.ReadFragment(txn, title.ID, false)) }},
		{wire.OpReadFragment, wire.Args{ID: book.ID, Flag: true}, func() (wire.Result, error) { return list(m.ReadFragment(txn, book.ID, true)) }},
		{wire.OpReadFragmentForUpdate, wire.Args{ID: history.ID, Flag: true}, func() (wire.Result, error) { return list(m.ReadFragmentForUpdate(txn, history.ID, true)) }},
		{wire.OpUpdateLastChildFragment, wire.Args{ID: book.ID}, func() (wire.Result, error) {
			n, frag, err := m.UpdateLastChildFragment(txn, book.ID)
			return wire.Result{Node: n, Nodes: frag}, err
		}},
		{wire.OpSetValue, wire.Args{ID: titleText.ID, Bytes: []byte("A New Title")}, func() (wire.Result, error) { return none(m.SetValue(txn, titleText.ID, []byte("A New Title"))) }},
		{wire.OpRename, wire.Args{ID: title.ID, Name: "heading"}, func() (wire.Result, error) { return none(m.Rename(txn, title.ID, "heading")) }},
		{wire.OpAppendElement, wire.Args{ID: history.ID, Name: "lend"}, func() (wire.Result, error) { return one(m.AppendElement(txn, history.ID, "lend")) }},
		{wire.OpAppendText, wire.Args{ID: title.ID, Bytes: []byte(" (2nd ed.)")}, func() (wire.Result, error) { return one(m.AppendText(txn, title.ID, []byte(" (2nd ed.)"))) }},
		{wire.OpInsertElementBefore, wire.Args{ID: book.ID, ID2: history.ID, Name: "note"}, func() (wire.Result, error) { return one(m.InsertElementBefore(txn, book.ID, history.ID, "note")) }},
		{wire.OpSetAttribute, wire.Args{ID: book.ID, Name: "year", Bytes: []byte("2006")}, func() (wire.Result, error) { return none(m.SetAttribute(txn, book.ID, "year", []byte("2006"))) }},
		{wire.OpSetAttribute, wire.Args{ID: title.ID, Name: "lang", Bytes: []byte("en")}, func() (wire.Result, error) { return none(m.SetAttribute(txn, title.ID, "lang", []byte("en"))) }},
		{wire.OpAttributeValue, wire.Args{ID: title.ID, Name: "lang"}, func() (wire.Result, error) { return val(m.AttributeValue(txn, title.ID, "lang")) }},
		{wire.OpDeleteSubtree, wire.Args{ID: lend.ID}, func() (wire.Result, error) { return none(m.DeleteSubtree(txn, lend.ID)) }},
		{wire.OpGetNode, wire.Args{ID: lend.ID}, func() (wire.Result, error) { return one(m.GetNode(txn, lend.ID)) }},
	}

	covered := map[wire.Op]bool{}
	for _, c := range cases {
		covered[c.op] = true
		got, gerr := w.do(c.op, c.args)
		want, werr := c.direct()
		if (gerr == nil) != (werr == nil) || (gerr != nil && statusOf(gerr) != statusOf(werr)) {
			t.Errorf("%s %+v: wire err %v, direct err %v", c.op, c.args, gerr, werr)
			continue
		}
		if gerr == nil && !sameResult(got, want) {
			t.Errorf("%s %+v:\n wire   %+v\n direct %+v", c.op, c.args, got, want)
		}
	}
	for op := wire.OpGetNode; int(op) < wire.NumOps; op++ {
		if _, ok := op.Spec(); ok && !covered[op] {
			t.Errorf("operation table row %s has no conformance case", op)
		}
	}

	if _, err := w.srv.execute(w.sess, wire.Msg{Op: wire.OpCommit}, context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	var wireXML, twinXML strings.Builder
	if err := wireEng.Mgr.Document().ExportXML(&wireXML, splid.Root()); err != nil {
		t.Fatal(err)
	}
	if err := m.Document().ExportXML(&twinXML, splid.Root()); err != nil {
		t.Fatal(err)
	}
	if wireXML.String() != twinXML.String() {
		t.Error("documents diverged: the wire path and the typed methods did not apply the same updates")
	}
	for name, mgr := range map[string]*node.Manager{"wire": wireEng.Mgr, "twin": m} {
		if err := mgr.Audit(); err != nil {
			t.Errorf("%s engine audit: %v", name, err)
		}
	}
}
