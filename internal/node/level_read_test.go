package node

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/xmlmodel"
)

// TestLevelReadReturnsPostLockState is the isolation oracle of the two-pass
// level reads. GetChildren and GetAttributes read the child list twice: once
// without locks, to learn which nodes the level lock must name, and once
// after the lock is granted, for the result. Only the second may be
// returned: while the reader waited for the lock, the writer it waited for
// was free to change the list.
//
// A writer adds a member to the list (taking the level and edge locks), the
// repeatable-read reader starts and blocks behind it, the writer adds a
// second member and finishes. After a commit the reader must see both new
// members, after an abort neither.
//
// Mutant (run by hand, not committed): read the result in getChildren /
// getAttributes before lockLevel / lockAttributes instead of after it. The
// reader then returns the first new member without the second — the commit
// case fails on the missing member, the abort case on the rolled-back one.
func TestLevelReadReturnsPostLockState(t *testing.T) {
	lists := []struct {
		name string
		// owner picks the node whose list is read; add gives it one more member.
		owner func(m *Manager, book splid.ID) splid.ID
		add   func(m *Manager, w *tx.Txn, owner splid.ID, i int) error
		read  func(m *Manager, r *tx.Txn, owner splid.ID) ([]xmlmodel.Node, error)
	}{
		{"children",
			func(m *Manager, book splid.ID) splid.ID { h, _ := m.Document().LastChild(book); return h.ID },
			func(m *Manager, w *tx.Txn, history splid.ID, _ int) error {
				_, err := m.AppendElement(w, history, "lend")
				return err
			},
			func(m *Manager, r *tx.Txn, history splid.ID) ([]xmlmodel.Node, error) {
				return m.GetChildren(r, history)
			}},
		{"attributes",
			func(m *Manager, book splid.ID) splid.ID { return book },
			func(m *Manager, w *tx.Txn, book splid.ID, i int) error {
				return m.SetAttribute(w, book, fmt.Sprintf("attr%d", i), []byte("v"))
			},
			func(m *Manager, r *tx.Txn, book splid.ID) ([]xmlmodel.Node, error) {
				return m.GetAttributes(r, book)
			}},
	}
	for _, name := range []string{"taDOM3+", "URIX", "Node2PLa"} {
		for _, list := range lists {
			for _, commit := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/commit=%v", name, list.name, commit), func(t *testing.T) {
					m := newLibrary(t, name, -1)
					defer m.Close()
					book, err := m.Document().ElementByID([]byte("b-1-1"))
					if err != nil {
						t.Fatal(err)
					}
					owner := list.owner(m, book)
					r0 := m.Begin(tx.LevelRepeatable)
					before, err := list.read(m, r0, owner)
					if err != nil || len(before) != 1 {
						t.Fatalf("list before the writer: %d members, %v", len(before), err)
					}
					r0.Commit()

					w := m.Begin(tx.LevelRepeatable)
					if err := list.add(m, w, owner, 1); err != nil {
						t.Fatal(err)
					}
					waits := m.LockManager().Stats().Waits
					type result struct {
						nodes []xmlmodel.Node
						err   error
					}
					done := make(chan result, 1)
					r := m.Begin(tx.LevelRepeatable)
					go func() {
						nodes, err := list.read(m, r, owner)
						done <- result{nodes, err}
					}()
					for deadline := time.Now().Add(300 * time.Millisecond); m.LockManager().Stats().Waits == waits; time.Sleep(time.Millisecond) {
						select {
						case res := <-done:
							t.Fatalf("the level read did not wait for the writer: %d members, %v", len(res.nodes), res.err)
						default:
						}
						if time.Now().After(deadline) {
							t.Fatal("the reader neither finished nor waited")
						}
					}
					if err := list.add(m, w, owner, 2); err != nil {
						t.Fatal(err)
					}
					want := 1
					if commit {
						want = 3
						err = w.Commit()
					} else {
						err = w.Abort()
					}
					if err != nil {
						t.Fatal(err)
					}
					res := <-done
					if res.err != nil || len(res.nodes) != want {
						t.Errorf("level read behind a writer that added two members and commit=%v: %d members, %v; want %d",
							commit, len(res.nodes), res.err, want)
					}
					if err := r.Commit(); err != nil {
						t.Fatal(err)
					}
					if err := m.Audit(); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// passMark is a protocol that notes the page fixes so far once a level lock
// is granted: what a level read fixes after that is its result pass.
type passMark struct {
	protocol.Protocol
	fixes func() uint64
	at    *uint64
}

func (p passMark) ReadLevel(c *protocol.Ctx, parent splid.ID, kids []splid.ID) error {
	err := p.Protocol.ReadLevel(c, parent, kids)
	*p.at = p.fixes()
	return err
}

// TestLevelReadPassesFixOneLeaf is the node-level half of the descent gate
// (storage.TestFixesPerReadOp), on a document tree of height 3. A transaction
// reads through its leaf memory: each cursor starts at the leaf the previous
// one closed on. JumpToID descends the id index and the document tree, and
// tries the remembered leaf first — another person's, so the probe fails and
// costs one page.
//
// Under taDOM3+, whose level lock names no child, a level read makes no lock
// pass: GetChildren fixes one page, the leaf JumpToID left, +1 across a leaf
// boundary; GetAttributes fixes that leaf twice, once to probe for the
// attribute root and once for the result. The length of the list does not
// enter. Under NO2PL the lock pass reads the labels first, and the result pass
// after it fixes one page, +1 across a leaf boundary; when the lock pass ended
// past a leaf boundary, the remembered leaf does not hold the list's first
// key, and the result pass pays the probe and a descent on top.
func TestLevelReadPassesFixOneLeaf(t *testing.T) {
	d, err := storage.Create(pagestore.NewMemBackend(), "bib", storage.Options{Config: pagestore.Config{BufferFrames: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b := d.NewBuilder()
	filler := string(make([]byte, 1500))
	for i := 0; i < 2500; i++ {
		b.StartElement("person").Attribute("id", fmt.Sprintf("p%d", i))
		for _, a := range []string{"born", "city", "zip", "rev"} {
			b.Attribute(a, a)
		}
		for _, f := range []string{"first", "last", "street", "phone"} {
			b.Element(f, f)
		}
		b.Text(filler).EndElement()
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DocTree.Depth != 3 {
		t.Fatalf("document tree has depth %d, the gate is written for 3", st.DocTree.Depth)
	}
	fixes := func() uint64 { s := d.Store().Stats(); return s.Hits + s.Misses }
	for _, c := range []struct {
		proto string
		// wants maps the fixes a level read counts to whether they are the
		// in-leaf case; a count not in it fails.
		wants map[string]map[uint64]bool
	}{
		{"taDOM3+", map[string]map[uint64]bool{
			"GetAttributes": {2: true, 3: false},
			"GetChildren":   {1: true, 2: false},
		}},
		{"NO2PL", map[string]map[uint64]bool{
			"GetAttributes": {1: true, 2: false, 4: false, 5: false},
			"GetChildren":   {1: true, 2: false, 4: false, 5: false},
		}},
	} {
		t.Run(c.proto, func(t *testing.T) {
			// mark is where the counted fixes start: before the level read
			// under taDOM3+, after its lock pass (passMark) under NO2PL.
			var mark uint64
			p, _ := protocol.Parse(c.proto)
			if p.ListsChildren() {
				p = passMark{p, fixes, &mark}
			}
			m := New(d, p, Options{Depth: -1})
			defer m.Close()
			txn := m.Begin(tx.LevelRepeatable)
			defer txn.Commit()
			const persons = 100
			oneLeaf := map[string]int{}
			for i := 0; i < persons; i++ {
				f0 := fixes()
				el, err := m.JumpToID(txn, fmt.Sprintf("p%d", i*25))
				if err != nil {
					t.Fatal(err)
				}
				if jump, want := fixes()-f0, uint64(st.IDTree.Depth+3+min(i, 1)); jump != want {
					t.Errorf("JumpToID of person %d fixed %d pages, want %d (id index) + 3 (document) + %d (a failed probe)",
						i, jump, st.IDTree.Depth, min(i, 1))
				}
				for _, level := range []struct {
					name string
					read func() ([]xmlmodel.Node, error)
				}{
					{"GetAttributes", func() ([]xmlmodel.Node, error) { return m.GetAttributes(txn, el.ID) }},
					{"GetChildren", func() ([]xmlmodel.Node, error) { return m.GetChildren(txn, el.ID) }},
				} {
					mark = fixes()
					nodes, err := level.read()
					if err != nil || len(nodes) != 5 {
						t.Fatalf("%s: %d nodes, %v", level.name, len(nodes), err)
					}
					n := fixes() - mark
					inLeaf, ok := c.wants[level.name][n]
					if !ok {
						t.Errorf("%s on person %d fixed %d pages, want one of %v (true: in one leaf)", level.name, i, n, c.wants[level.name])
					}
					if inLeaf {
						oneLeaf[level.name]++
					}
				}
			}
			// Measured: all 100 attribute lists; 76 child lists, and the other
			// 24 persons' children run into the next leaf.
			for _, name := range []string{"GetAttributes", "GetChildren"} {
				if oneLeaf[name] < persons/2 {
					t.Errorf("%s stayed in one leaf for only %d of %d persons", name, oneLeaf[name], persons)
				}
			}
		})
	}
}

// TestLevelReadLocksWhatItReturns is the oracle of relockLevel under the
// protocols whose level lock names each child. A writer appends a child (so
// the reader's lock pass sees it and waits behind its locks), appends a
// second one while the reader waits, and commits. The reader's result then
// holds a child its lock pass never named; it must hold a lock on it before
// returning it, so a third transaction renaming that child times out.
//
// Mutant (run by hand, not committed): relockLevel returning (named, false,
// nil) at once — the lock pass still skips, the re-check is gone. The rename
// then succeeds under all three protocols.
func TestLevelReadLocksWhatItReturns(t *testing.T) {
	for _, name := range []string{"NO2PL", "OO2PL", "URIX"} {
		t.Run(name, func(t *testing.T) {
			m := newLibraryTimeout(t, name, -1, 200*time.Millisecond)
			book, err := m.Document().ElementByID([]byte("b-0-2"))
			if err != nil {
				t.Fatal(err)
			}
			history, err := m.Document().LastChild(book)
			if err != nil {
				t.Fatal(err)
			}
			w := m.Begin(tx.LevelRepeatable)
			if _, err := m.AppendElement(w, history.ID, "lend"); err != nil {
				t.Fatal(err)
			}
			waits := m.LockManager().Stats().Waits
			type result struct {
				kids []xmlmodel.Node
				err  error
			}
			done := make(chan result, 1)
			r := m.Begin(tx.LevelRepeatable)
			go func() {
				kids, err := m.GetChildren(r, history.ID)
				done <- result{kids, err}
			}()
			for deadline := time.Now().Add(150 * time.Millisecond); m.LockManager().Stats().Waits == waits; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the level read did not wait for the writer")
				}
			}
			late, err := m.AppendElement(w, history.ID, "lend")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			res := <-done
			if res.err != nil || len(res.kids) != 3 || res.kids[2].ID != late.ID {
				t.Fatalf("level read behind a committed writer: %d children, %v; want 3 ending in %v", len(res.kids), res.err, late.ID)
			}
			x := m.Begin(tx.LevelRepeatable)
			if err := m.Rename(x, late.ID, "loan"); !IsAbortWorthy(err) {
				t.Errorf("renaming a child the reader returned: %v; want a lock timeout (the reader holds no lock on %v)", err, late.ID)
			}
			x.Abort()
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := m.Audit(); err != nil {
				t.Error(err)
			}
		})
	}
}

// firstAttr is a protocol that runs commit once, right after the lock step of
// a getAttributes on an element without an attribute root: its element lock
// is granted, its result is not read yet.
type firstAttr struct {
	protocol.Protocol
	el     splid.ID
	commit func()
}

func (p *firstAttr) ReadNode(c *protocol.Ctx, id splid.ID, acc protocol.Access) error {
	err := p.Protocol.ReadNode(c, id, acc)
	if err == nil && id == p.el && p.commit != nil {
		commit := p.commit
		p.commit = nil
		commit()
	}
	return err
}

// TestLevelReadLocksFirstAttribute is the oracle of the one relock the
// protocols with level locks keep. An element without an attribute root is
// isolated by a lock on the element, which covers no attribute: a writer's
// first SetAttribute commits between the reader's lock step and its result
// read, and the reader may return that attribute only once it holds the level
// lock on the new attribute root — so a third transaction's SetAttribute on
// it times out.
//
// Mutant (run by hand, not committed): relockLevel returning at once for a
// protocol that does not list children. The third SetAttribute then succeeds
// under both protocols.
func TestLevelReadLocksFirstAttribute(t *testing.T) {
	for _, name := range []string{"taDOM3+", "Node2PLa"} {
		t.Run(name, func(t *testing.T) {
			lib := newLibrary(t, name, -1)
			defer lib.Close()
			book, err := lib.Document().ElementByID([]byte("b-0-1"))
			if err != nil {
				t.Fatal(err)
			}
			title, err := lib.Document().FirstChild(book)
			if err != nil {
				t.Fatal(err)
			}
			p := &firstAttr{Protocol: lib.Protocol(), el: title.ID}
			m := New(lib.Document(), p, Options{Depth: -1, LockTimeout: 200 * time.Millisecond})
			defer m.Close()
			p.commit = func() {
				w := m.Begin(tx.LevelRepeatable)
				if err := m.SetAttribute(w, title.ID, "lang", []byte("en")); err != nil {
					t.Error(err)
				}
				if err := w.Commit(); err != nil {
					t.Error(err)
				}
			}
			r := m.Begin(tx.LevelRepeatable)
			attrs, err := m.GetAttributes(r, title.ID)
			if err != nil || len(attrs) != 1 {
				t.Fatalf("GetAttributes behind a committed first attribute: %d attributes, %v; want 1", len(attrs), err)
			}
			x := m.Begin(tx.LevelRepeatable)
			if err := m.SetAttribute(x, title.ID, "lang", []byte("de")); !IsAbortWorthy(err) {
				t.Errorf("overwriting the attribute the reader returned: %v; want a lock timeout (the reader holds no lock on it)", err)
			}
			x.Abort()
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := m.Audit(); err != nil {
				t.Error(err)
			}
		})
	}
}
