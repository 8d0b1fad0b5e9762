package node

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/xmlmodel"
)

// newLibrary builds the small Figure 5-style document under one protocol.
func newLibrary(t testing.TB, protoName string, depth int) *Manager {
	t.Helper()
	d, err := storage.Create(pagestore.NewMemBackend(), "bib", storage.Options{Dist: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	b := d.NewBuilder()
	b.StartElement("topics")
	for ti := 0; ti < 2; ti++ {
		b.StartElement("topic").Attribute("id", fmt.Sprintf("t-%d", ti))
		for bi := 0; bi < 3; bi++ {
			b.StartElement("book").Attribute("id", fmt.Sprintf("b-%d-%d", ti, bi)).
				Element("title", fmt.Sprintf("book %d.%d", ti, bi)).
				Element("author", "haustein").
				Element("price", "42").
				StartElement("history").
				StartElement("lend").Attribute("person", "p-1").EndElement().
				EndElement().
				EndElement()
		}
		b.EndElement()
	}
	b.EndElement()
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	p, err := protocol.Parse(protoName)
	if err != nil {
		t.Fatal(err)
	}
	return New(d, p, Options{Depth: depth, LockTimeout: 500 * time.Millisecond})
}

func TestNavigationUnderAllProtocols(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := newLibrary(t, name, -1)
			txn := m.Begin(tx.LevelRepeatable)
			defer txn.Commit()

			topics, err := m.FirstChild(txn, m.Document().Root())
			if err != nil {
				t.Fatal(err)
			}
			if m.Document().Vocabulary().Name(topics.Name) != "topics" {
				t.Fatalf("FirstChild(root) = %v", topics)
			}
			topic, err := m.FirstChild(txn, topics.ID)
			if err != nil {
				t.Fatal(err)
			}
			next, err := m.NextSibling(txn, topic.ID)
			if err != nil {
				t.Fatal(err)
			}
			if next.ID.IsNull() {
				t.Fatal("expected second topic")
			}
			back, err := m.PrevSibling(txn, next.ID)
			if err != nil || !back.ID.Equal(topic.ID) {
				t.Fatalf("PrevSibling = %v, %v", back, err)
			}
			par, err := m.Parent(txn, topic.ID)
			if err != nil || !par.ID.Equal(topics.ID) {
				t.Fatalf("Parent = %v, %v", par, err)
			}
			kids, err := m.GetChildren(txn, topic.ID)
			if err != nil || len(kids) != 3 {
				t.Fatalf("GetChildren = %d, %v", len(kids), err)
			}
			book, err := m.JumpToID(txn, "b-0-1")
			if err != nil {
				t.Fatal(err)
			}
			attrs, err := m.GetAttributes(txn, book.ID)
			if err != nil || len(attrs) != 1 {
				t.Fatalf("GetAttributes = %d, %v", len(attrs), err)
			}
			v, err := m.AttributeValue(txn, book.ID, "id")
			if err != nil || string(v) != "b-0-1" {
				t.Fatalf("AttributeValue = %q, %v", v, err)
			}
			frag, err := m.ReadFragment(txn, book.ID, false)
			if err != nil || len(frag) < 8 {
				t.Fatalf("ReadFragment = %d nodes, %v", len(frag), err)
			}
		})
	}
}

func TestUpdateAndCommit(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := newLibrary(t, name, -1)
			txn := m.Begin(tx.LevelRepeatable)
			book, err := m.JumpToID(txn, "b-0-0")
			if err != nil {
				t.Fatal(err)
			}
			title, err := m.FirstChild(txn, book.ID)
			if err != nil {
				t.Fatal(err)
			}
			text, err := m.FirstChild(txn, title.ID)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetValue(txn, text.ID, []byte("updated")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			v, _ := m.Document().Value(text.ID)
			if string(v) != "updated" {
				t.Errorf("value after commit = %q", v)
			}
		})
	}
}

func TestAbortUndoesEverything(t *testing.T) {
	m := newLibrary(t, "taDOM3+", -1)
	doc := m.Document()
	sizeBefore := doc.Size()

	txn := m.Begin(tx.LevelRepeatable)
	book, err := m.JumpToID(txn, "b-0-0")
	if err != nil {
		t.Fatal(err)
	}
	// Content update.
	title, _ := m.FirstChild(txn, book.ID)
	text, _ := m.FirstChild(txn, title.ID)
	if err := m.SetValue(txn, text.ID, []byte("scratch")); err != nil {
		t.Fatal(err)
	}
	// Rename.
	if err := m.Rename(txn, book.ID, "tome"); err != nil {
		t.Fatal(err)
	}
	// Structural insert.
	hist, err := m.LastChild(txn, book.ID)
	if err != nil {
		t.Fatal(err)
	}
	lend, err := m.AppendElement(txn, hist.ID, "lend")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetAttribute(txn, lend.ID, "person", []byte("p-9")); err != nil {
		t.Fatal(err)
	}
	// Subtree delete of another book.
	other, err := m.Document().ElementByID([]byte("b-1-2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteSubtree(txn, other); err != nil {
		t.Fatal(err)
	}

	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}

	if doc.Size() != sizeBefore {
		t.Errorf("size after abort = %d, want %d", doc.Size(), sizeBefore)
	}
	if v, _ := doc.Value(text.ID); string(v) != "book 0.0" {
		t.Errorf("title text after abort = %q", v)
	}
	n, _ := doc.GetNode(book.ID)
	if doc.Vocabulary().Name(n.Name) != "book" {
		t.Errorf("name after abort = %s", doc.Vocabulary().Name(n.Name))
	}
	if _, err := doc.ElementByID([]byte("b-1-2")); err != nil {
		t.Errorf("deleted book not restored: %v", err)
	}
	// The id index still finds the restored book's content.
	restored, _ := doc.ElementByID([]byte("b-1-2"))
	if cnt, _ := doc.SubtreeSize(restored); cnt < 8 {
		t.Errorf("restored subtree has %d nodes", cnt)
	}
}

func TestRepeatableReadBlocksConcurrentUpdate(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := newLibrary(t, name, -1)
			reader := m.Begin(tx.LevelRepeatable)
			book, err := m.JumpToID(reader, "b-0-0")
			if err != nil {
				t.Fatal(err)
			}
			frag1, err := m.ReadFragment(reader, book.ID, false)
			if err != nil {
				t.Fatal(err)
			}

			// A concurrent writer must not be able to change what the reader
			// saw before the reader commits.
			writer := m.Begin(tx.LevelRepeatable)
			title, _ := m.Document().FirstChild(book.ID)
			text, _ := m.Document().FirstChild(title.ID)
			werr := m.SetValue(writer, text.ID, []byte("dirty"))
			if werr == nil {
				t.Fatal("writer updated a fragment under repeatable read")
			}
			if !IsAbortWorthy(werr) {
				t.Fatalf("unexpected writer error: %v", werr)
			}
			writer.Abort()

			// Re-traversal yields the identical fragment.
			frag2, err := m.ReadFragment(reader, book.ID, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(frag1) != len(frag2) {
				t.Errorf("fragment changed under repeatable read: %d vs %d", len(frag1), len(frag2))
			}
			reader.Commit()
		})
	}
}

func TestUncommittedReadersDontBlock(t *testing.T) {
	m := newLibrary(t, "taDOM3+", -1)
	writer := m.Begin(tx.LevelRepeatable)
	book, err := m.JumpToID(writer, "b-0-0")
	if err != nil {
		t.Fatal(err)
	}
	title, _ := m.Document().FirstChild(book.ID)
	text, _ := m.Document().FirstChild(title.ID)
	if err := m.SetValue(writer, text.ID, []byte("wip")); err != nil {
		t.Fatal(err)
	}
	// An uncommitted-level reader sails through the write locks.
	reader := m.Begin(tx.LevelUncommitted)
	v, err := m.Value(reader, text.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "wip" {
		t.Errorf("dirty read = %q, want the in-flight value", v)
	}
	reader.Commit()
	writer.Commit()
}

func TestDeadlockVictimCanRetry(t *testing.T) {
	m := newLibrary(t, "taDOM2", -1)
	doc := m.Document()
	b1, _ := doc.ElementByID([]byte("b-0-0"))
	b2, _ := doc.ElementByID([]byte("b-0-1"))
	t1v, _ := doc.FirstChild(b1)
	t1text, _ := doc.FirstChild(t1v.ID)
	t2v, _ := doc.FirstChild(b2)
	t2text, _ := doc.FirstChild(t2v.ID)

	var wg sync.WaitGroup
	var aborts, commits int
	var mu sync.Mutex
	run := func(first, second splid.ID) {
		defer wg.Done()
		for attempt := 0; attempt < 10; attempt++ {
			txn := m.Begin(tx.LevelRepeatable)
			err := m.SetValue(txn, first, []byte("x"))
			if err == nil {
				time.Sleep(10 * time.Millisecond) // encourage the crossing
				err = m.SetValue(txn, second, []byte("y"))
			}
			if err != nil {
				txn.Abort()
				if !IsAbortWorthy(err) {
					t.Errorf("unexpected error: %v", err)
					return
				}
				mu.Lock()
				aborts++
				mu.Unlock()
				continue
			}
			if err := txn.Commit(); err != nil {
				t.Error(err)
			}
			mu.Lock()
			commits++
			mu.Unlock()
			return
		}
		t.Error("transaction never succeeded after 10 attempts")
	}
	wg.Add(2)
	go run(t1text.ID, t2text.ID)
	go run(t2text.ID, t1text.ID)
	wg.Wait()
	if commits != 2 {
		t.Errorf("commits = %d, want 2", commits)
	}
	// Both updates eventually applied.
	if v, _ := doc.Value(t1text.ID); string(v) != "x" && string(v) != "y" {
		t.Errorf("t1 value = %q", v)
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	// Writers on different books proceed fully in parallel under the
	// fine-granular protocols.
	for _, name := range []string{"taDOM3+", "URIX", "OO2PL"} {
		name := name
		t.Run(name, func(t *testing.T) {
			m := newLibrary(t, name, -1)
			doc := m.Document()
			var wg sync.WaitGroup
			errs := make([]error, 6)
			for ti := 0; ti < 2; ti++ {
				for bi := 0; bi < 3; bi++ {
					wg.Add(1)
					go func(ti, bi int) {
						defer wg.Done()
						idx := ti*3 + bi
						book, err := doc.ElementByID([]byte(fmt.Sprintf("b-%d-%d", ti, bi)))
						if err != nil {
							errs[idx] = err
							return
						}
						txn := m.Begin(tx.LevelRepeatable)
						title, _ := doc.FirstChild(book)
						text, _ := doc.FirstChild(title.ID)
						if err := m.SetValue(txn, text.ID, []byte(fmt.Sprintf("t%d%d", ti, bi))); err != nil {
							errs[idx] = err
							txn.Abort()
							return
						}
						errs[idx] = txn.Commit()
					}(ti, bi)
				}
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("writer %d: %v", i, err)
				}
			}
		})
	}
}

func TestInsertBeforeAndAppend(t *testing.T) {
	m := newLibrary(t, "taDOM3+", -1)
	txn := m.Begin(tx.LevelRepeatable)
	book, err := m.JumpToID(txn, "b-0-0")
	if err != nil {
		t.Fatal(err)
	}
	title, err := m.FirstChild(txn, book.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a new element before the title.
	isbn, err := m.InsertElementBefore(txn, book.ID, title.ID, "isbn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendText(txn, isbn.ID, []byte("978-3")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	check := m.Begin(tx.LevelRepeatable)
	defer check.Commit()
	first, err := m.FirstChild(check, book.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !first.ID.Equal(isbn.ID) {
		t.Errorf("first child = %v, want the inserted isbn", first.ID)
	}
	kids, _ := m.GetChildren(check, book.ID)
	if len(kids) != 5 {
		t.Errorf("book has %d children, want 5", len(kids))
	}
}

func TestOperationsOnFinishedTxn(t *testing.T) {
	m := newLibrary(t, "taDOM3+", -1)
	txn := m.Begin(tx.LevelRepeatable)
	txn.Commit()
	if _, err := m.GetNode(txn, m.Document().Root()); !errors.Is(err, tx.ErrTxnDone) {
		t.Errorf("GetNode on finished txn: %v", err)
	}
	if err := m.SetValue(txn, m.Document().Root(), nil); !errors.Is(err, tx.ErrTxnDone) {
		t.Errorf("SetValue on finished txn: %v", err)
	}
}

func TestLevelLockSavesRequests(t *testing.T) {
	// taDOM's LR covers getChildNodes with one node lock; MGL needs one per
	// child — observable through the lock-manager request counter.
	mTD := newLibrary(t, "taDOM3+", -1)
	tTD := mTD.Begin(tx.LevelRepeatable)
	topics, _ := mTD.Document().FirstChild(mTD.Document().Root())
	topic, _ := mTD.Document().FirstChild(topics.ID)
	if _, err := mTD.GetChildren(tTD, topic.ID); err != nil {
		t.Fatal(err)
	}
	tdReqs := mTD.LockManager().Stats().Requests
	tTD.Commit()

	mMG := newLibrary(t, "URIX", -1)
	tMG := mMG.Begin(tx.LevelRepeatable)
	if _, err := mMG.GetChildren(tMG, topic.ID); err != nil {
		t.Fatal(err)
	}
	mgReqs := mMG.LockManager().Stats().Requests
	tMG.Commit()

	if tdReqs >= mgReqs {
		t.Errorf("taDOM level lock should need fewer requests: taDOM=%d, URIX=%d", tdReqs, mgReqs)
	}
}

func TestPhantomChildPrevention(t *testing.T) {
	// After getChildNodes, no concurrent transaction may add a child.
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := newLibrary(t, name, -1)
			doc := m.Document()
			book, _ := doc.ElementByID([]byte("b-0-0"))

			reader := m.Begin(tx.LevelRepeatable)
			kids, err := m.GetChildren(reader, book)
			if err != nil {
				t.Fatal(err)
			}
			writer := m.Begin(tx.LevelRepeatable)
			_, werr := m.AppendElement(writer, book, "phantom")
			if werr == nil {
				writer.Commit()
				kids2, _ := m.GetChildren(reader, book)
				if len(kids2) != len(kids) {
					t.Errorf("phantom child visible: %d -> %d", len(kids), len(kids2))
				}
			} else {
				writer.Abort()
			}
			reader.Commit()
		})
	}
}

func TestXMLRoundTripThroughManager(t *testing.T) {
	m := newLibrary(t, "taDOM2+", -1)
	txn := m.Begin(tx.LevelRepeatable)
	defer txn.Commit()
	frag, err := m.ReadFragment(txn, m.Document().Root(), false)
	if err != nil {
		t.Fatal(err)
	}
	elements := 0
	for _, n := range frag {
		if n.Kind == xmlmodel.KindElement {
			elements++
		}
	}
	// 1 bib + 1 topics + 2 topic + 6 book + 6*(title+author+price+history+lend)
	want := 1 + 1 + 2 + 6 + 6*5
	if elements != want {
		t.Errorf("element count = %d, want %d", elements, want)
	}
}
