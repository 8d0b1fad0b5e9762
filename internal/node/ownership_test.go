package node

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/tx"
	"repro/internal/xmlmodel"
)

// TestFragmentResultIsTheCallers is the ownership oracle of a fragment read's
// result: the slice, its labels and its values belong to the caller from the
// moment ReadFragment returns. The test keeps one result while the same
// transaction overwrites, renames, extends and deletes the very nodes it
// lists — in place, on the pages it was read from — reads 1 000 more
// fragments, and commits; the result must still say what the document said
// when it was read. (Mutant, run by hand: let storage.recordAt return the
// value without copying it — the first SetValue shows through.)
func TestFragmentResultIsTheCallers(t *testing.T) {
	m := newLibrary(t, "taDOM3+", -1)
	defer m.Close()
	doc := m.Document()
	book, err := doc.ElementByID([]byte("b-0-1"))
	if err != nil {
		t.Fatal(err)
	}
	txn := m.Begin(tx.LevelRepeatable)
	held, err := m.ReadFragmentForUpdate(txn, book, true)
	if err != nil {
		t.Fatal(err)
	}
	type frozen struct {
		id    string
		kind  xmlmodel.Kind
		name  xmlmodel.Sur
		value string
	}
	freeze := func(nodes []xmlmodel.Node) []frozen {
		out := make([]frozen, len(nodes))
		for i, n := range nodes {
			out[i] = frozen{n.ID.String(), n.Kind, n.Name, string(n.Value)}
		}
		return out
	}
	want := freeze(held)
	if len(want) < 15 {
		t.Fatalf("fixture: the book has %d nodes", len(want))
	}

	var texts, elements []xmlmodel.Node
	for _, n := range held[1:] {
		switch n.Kind {
		case xmlmodel.KindText:
			texts = append(texts, n)
		case xmlmodel.KindElement:
			elements = append(elements, n)
		}
	}
	history := elements[len(elements)-2] // title, author, price, history, lend
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 0:
			err = m.SetValue(txn, texts[i%len(texts)].ID, bytes.Repeat([]byte{byte('A' + i%26)}, 5+i%9))
		case 1:
			err = m.Rename(txn, elements[i%3].ID, fmt.Sprintf("renamed%d", i%4))
		case 2:
			_, err = m.AppendElement(txn, history.ID, "lend")
		case 3:
			var last xmlmodel.Node
			if last, err = m.LastChild(txn, history.ID); err == nil && !last.ID.IsNull() {
				err = m.DeleteSubtree(txn, last.ID)
			}
		case 4:
			var again []xmlmodel.Node
			if again, err = m.ReadFragment(txn, book, true); err == nil && len(again) == 0 {
				err = fmt.Errorf("the book vanished")
			}
		}
		if err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	got := freeze(held)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d of the held result changed from %+v to %+v", i, want[i], got[i])
		}
	}
	after, err := doc.Subtree(book)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(freeze(after)) == fmt.Sprint(want) {
		t.Fatal("the 1 000 operations left the book as it was: nothing was tested")
	}
}
