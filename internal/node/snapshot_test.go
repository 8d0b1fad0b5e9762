package node

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pagestore"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// newSnapshotLibrary builds the Figure 5-style document with a WAL attached
// and snapshot reads enabled, returning the pieces a crash-restart test
// needs to rebuild the world from.
func newSnapshotLibrary(t testing.TB, protoName string) (*Manager, *storage.Document, *wal.Log, *pagestore.MemBackend, *wal.MemSegmentStore) {
	return newSnapshotLibrarySized(t, protoName, 2, 3)
}

// newSnapshotLibrarySized is newSnapshotLibrary with topics × books books
// (ids "b-<topic>-<book>").
func newSnapshotLibrarySized(t testing.TB, protoName string, topics, books int) (*Manager, *storage.Document, *wal.Log, *pagestore.MemBackend, *wal.MemSegmentStore) {
	t.Helper()
	backend := pagestore.NewMemBackend()
	d, err := storage.Create(backend, "bib", storage.Options{Dist: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := d.NewBuilder()
	b.StartElement("topics")
	for ti := 0; ti < topics; ti++ {
		b.StartElement("topic").Attribute("id", fmt.Sprintf("t-%d", ti))
		for bi := 0; bi < books; bi++ {
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
	segs := wal.NewMemSegmentStore()
	log, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	p, err := protocol.Parse(protoName)
	if err != nil {
		t.Fatal(err)
	}
	m := New(d, p, Options{Depth: -1, LockTimeout: 500 * time.Millisecond})
	m.TxManager().SetWAL(log)
	m.EnableSnapshotReads()
	t.Cleanup(func() {
		m.Close()
		d.Close()
		log.Close()
	})
	return m, d, log, backend, segs
}

// titleText resolves a book's title text node — the value-bearing node the
// test writers overwrite.
func titleText(m *Manager, txn *tx.Txn, bookID string) (xmlmodel.Node, error) {
	bk, err := m.JumpToID(txn, bookID)
	if err != nil {
		return xmlmodel.Node{}, err
	}
	title, err := m.FirstChild(txn, bk.ID)
	if err != nil {
		return xmlmodel.Node{}, err
	}
	return m.FirstChild(txn, title.ID)
}

// TestSnapshotWritesRejected pins the contestant's contract: a LevelSnapshot
// transaction is read-only, and every mutating operation refuses it before
// touching the lock manager or the document.
func TestSnapshotWritesRejected(t *testing.T) {
	m, _, _, _, _ := newSnapshotLibrary(t, "snapshot")
	txn := m.Begin(tx.LevelSnapshot)
	defer txn.Commit()

	book, err := m.JumpToID(txn, "b-0-0")
	if err != nil {
		t.Fatal(err)
	}
	// The rule is the operation table's write class: exactly the rows marked
	// Write are refused, whatever they return.
	for op := wire.OpGetNode; int(op) < wire.NumOps; op++ {
		spec, ok := op.Spec()
		if !ok {
			continue
		}
		_, err := m.Do(txn, op, wire.Args{ID: book.ID, ID2: book.ID, Name: "note", Bytes: []byte("x")})
		if refused := errors.Is(err, ErrReadOnly); refused != spec.Write {
			t.Errorf("%s on snapshot txn: err = %v, refused = %v, table says write = %v", op, err, refused, spec.Write)
		}
	}
}

// TestSnapshotReadsZeroLockTraffic is the tentpole acceptance test: a
// read-only workload at tx.LevelSnapshot navigates and reads the document
// with ZERO lock-manager requests while a writer commits concurrently.
func TestSnapshotReadsZeroLockTraffic(t *testing.T) {
	m, d, _, _, _ := newSnapshotLibrary(t, "snapshot")

	// Seed some committed history so snapshots have versions to pin.
	seed := m.Begin(tx.LevelRepeatable)
	txt, err := titleText(m, seed, "b-1-2")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetValue(seed, txt.ID, []byte("seeded")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	base := m.LockManager().Stats().Requests

	// The concurrent writer runs at LevelNone: it commits real page
	// mutations through the WAL but places no lock requests itself, so any
	// movement of the request counter must come from the snapshot readers.
	var stop atomic.Bool
	var commits atomic.Uint64
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; !stop.Load(); i++ {
			w := m.Begin(tx.LevelNone)
			txt, err := titleText(m, w, "b-0-1")
			if err == nil {
				err = m.SetValue(w, txt.ID, []byte(fmt.Sprintf("rev-%d", i)))
			}
			if err != nil {
				w.Abort()
				t.Errorf("writer: %v", err)
				return
			}
			if err := w.Commit(); err != nil {
				t.Errorf("writer commit: %v", err)
				return
			}
			commits.Add(1)
		}
	}()

	const readers = 8
	var readerWG sync.WaitGroup
	readerWG.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer readerWG.Done()
			for round := 0; round < 50; round++ {
				txn := m.Begin(tx.LevelSnapshot)
				txt, err := titleText(m, txn, "b-0-1")
				if err == nil {
					_, err = m.Value(txn, txt.ID)
				}
				if err == nil {
					bk, berr := m.JumpToID(txn, "b-0-1")
					err = berr
					if err == nil {
						_, err = m.ReadFragment(txn, bk.ID, false)
					}
				}
				if err == nil {
					kids, kerr := m.GetChildren(txn, d.Root())
					err = kerr
					if err == nil && len(kids) != 1 {
						err = fmt.Errorf("root has %d children", len(kids))
					}
				}
				if cerr := txn.Commit(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}

	// Let readers finish, then release the writer.
	readerWG.Wait()
	stop.Store(true)
	writerWG.Wait()

	if got := m.LockManager().Stats().Requests; got != base {
		t.Errorf("snapshot read workload placed %d lock requests, want 0", got-base)
	}
	if commits.Load() == 0 {
		t.Error("writer committed nothing; the run proved no concurrency")
	}
	if err := m.TxManager().SnapshotLeakCheck(); err != nil {
		t.Error(err)
	}
}

// docDigest hashes the whole document as seen through txn: every node's ID,
// kind, name surrogate, and value, in document order.
func docDigest(t testing.TB, m *Manager, txn *tx.Txn) uint64 {
	t.Helper()
	frag, err := m.ReadFragment(txn, m.Document().Root(), false)
	if err != nil {
		t.Fatalf("digest scan: %v", err)
	}
	h := fnv.New64a()
	for _, n := range frag {
		h.Write(n.ID.Encode())
		h.Write([]byte{byte(n.Kind)})
		h.Write([]byte{byte(n.Name), byte(n.Name >> 8)})
		h.Write(n.Value)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// oracleEntry records the committed document state at one snapshot LSN.
type oracleEntry struct {
	lsn    uint64
	digest uint64
}

// TestSnapshotVisibilityOracle is the randomized equivalence check: a single
// writer mutates and commits, recording after each commit the WAL's snapshot
// LSN and a digest of the committed document. Concurrent snapshot readers
// then demand that a transaction pinned at LSN S observes exactly the digest
// recorded at S — never a torn in-between state, never a stale-but-mislabeled
// one. Run under -race this also hammers the version-chain concurrency.
func TestSnapshotVisibilityOracle(t *testing.T) {
	m, _, log, _, _ := newSnapshotLibrary(t, "snapshot")

	var mu sync.Mutex
	var oracle []oracleEntry
	record := func() {
		// The writer is quiescent between commits and readers never write,
		// so a LevelNone live read sees exactly the committed state.
		txn := m.Begin(tx.LevelNone)
		dig := docDigest(t, m, txn)
		lsn := log.SnapshotLSN()
		txn.Commit()
		mu.Lock()
		oracle = append(oracle, oracleEntry{lsn: lsn, digest: dig})
		mu.Unlock()
	}
	record() // state zero, before any logged commit

	const rounds = 60
	var wg sync.WaitGroup
	var writerDone atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := 0; i < rounds; i++ {
			w := m.Begin(tx.LevelRepeatable)
			id := fmt.Sprintf("b-%d-%d", i%2, i%3)
			txt, err := titleText(m, w, id)
			if err == nil {
				err = m.SetValue(w, txt.ID, []byte(fmt.Sprintf("round-%d", i)))
			}
			if err == nil && i%4 == 3 {
				// Structural churn: grow the document so tree pages split and
				// roots move, exercising the root log and version chains.
				var bk xmlmodel.Node
				bk, err = m.JumpToID(w, id)
				if err == nil {
					_, err = m.AppendElement(w, bk.ID, "note")
				}
			}
			if err != nil {
				w.Abort()
				t.Errorf("writer round %d: %v", i, err)
				return
			}
			if err := w.Commit(); err != nil {
				t.Errorf("writer commit %d: %v", i, err)
				return
			}
			record()
		}
	}()

	var validated atomic.Uint64
	const readers = 6
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			// Keep reading a while after the writer stops: the last commits'
			// oracle entries are then guaranteed recorded, so late rounds
			// always validate instead of slipping into the recording window.
			for i := 0; i < 30 || !writerDone.Load(); i++ {
				txn := m.Begin(tx.LevelSnapshot)
				s := txn.SnapshotLSN()
				dig := docDigest(t, m, txn)
				txn.Commit()
				mu.Lock()
				i := sort.Search(len(oracle), func(i int) bool { return oracle[i].lsn >= s })
				var want oracleEntry
				found := i < len(oracle) && oracle[i].lsn == s
				if found {
					want = oracle[i]
				}
				mu.Unlock()
				if !found {
					// The commit that produced S is recorded slightly after it
					// becomes visible; a reader can slip into that window.
					continue
				}
				if dig != want.digest {
					t.Errorf("snapshot at LSN %d read digest %x, oracle says %x", s, dig, want.digest)
					return
				}
				validated.Add(1)
			}
		}()
	}
	wg.Wait()

	if n := validated.Load(); n < 20 {
		t.Fatalf("only %d reader checks matched an oracle entry; test proved too little", n)
	}
	if err := m.TxManager().SnapshotLeakCheck(); err != nil {
		t.Error(err)
	}
	// With every snapshot released the watermark is the WAL's snapshot LSN;
	// pruning must leave nothing below it.
	w := m.TxManager().SnapshotWatermark()
	m.Document().Store().PruneVersions(w)
	if n := m.Document().Store().StaleVersions(w); n != 0 {
		t.Errorf("%d page versions survived below watermark %d", n, w)
	}
}

// TestSnapshotOracleManyReaders is the visibility oracle in the shape that
// found the FixAt hole (a remote TaMix run: many sessions of short reads
// against one busy writer): the document is large enough for its trees to
// have inner pages — which every write descent reads without changing — the
// writer commits back to back, and many readers each take one root-to-leaf
// point read per snapshot. A reader pinned at the LSN of commit k must see,
// in book j, the value of the last round <= k that wrote book j.
func TestSnapshotOracleManyReaders(t *testing.T) {
	const topics, books, rounds, readers = 8, 16, 400, 16
	m, _, log, _, _ := newSnapshotLibrarySized(t, "snapshot", topics, books)
	bookID := func(j int) string { return fmt.Sprintf("b-%d-%d", j/books, j%books) }

	var mu sync.Mutex
	commitLSN := []uint64{log.SnapshotLSN()} // commitLSN[k]: snapshot LSN once rounds < k are committed
	var wg sync.WaitGroup
	var writerDone atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := 0; i < rounds; i++ {
			w := m.Begin(tx.LevelRepeatable)
			txt, err := titleText(m, w, bookID(i%(topics*books)))
			if err == nil {
				err = m.SetValue(w, txt.ID, []byte(fmt.Sprintf("round-%d", i)))
			}
			if err == nil {
				err = w.Commit()
			} else {
				w.Abort()
			}
			if err != nil {
				t.Errorf("writer round %d: %v", i, err)
				return
			}
			mu.Lock()
			commitLSN = append(commitLSN, log.SnapshotLSN())
			mu.Unlock()
		}
	}()

	var validated atomic.Uint64
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50 || !writerDone.Load(); i++ {
				j := (r*31 + i*7) % (topics * books)
				txn := m.Begin(tx.LevelSnapshot)
				s := txn.SnapshotLSN()
				txt, err := titleText(m, txn, bookID(j))
				var got []byte
				if err == nil {
					got, err = m.Value(txn, txt.ID)
				}
				txn.Commit()
				if err != nil {
					t.Errorf("reader %d at LSN %d: %v", r, s, err)
					return
				}
				mu.Lock()
				k := sort.Search(len(commitLSN), func(k int) bool { return commitLSN[k] >= s })
				found := k < len(commitLSN) && commitLSN[k] == s
				mu.Unlock()
				if !found {
					continue // slipped between a commit and its recording
				}
				// Rounds 0..k-1 are committed at commitLSN[k]; the last of them
				// that wrote book j is the largest i < k congruent to j.
				want := fmt.Sprintf("book %d.%d", j/books, j%books)
				if last := k - 1 - ((k-1-j)%(topics*books)+topics*books)%(topics*books); k > 0 && last >= 0 {
					want = fmt.Sprintf("round-%d", last)
				}
				if string(got) != want {
					t.Errorf("snapshot at LSN %d (commit %d) read book %d title %q, oracle says %q", s, k, j, got, want)
					return
				}
				validated.Add(1)
			}
		}(r)
	}
	wg.Wait()
	if n := validated.Load(); n < 100 {
		t.Errorf("only %d reader checks matched an oracle entry; test proved too little", n)
	}
	if err := m.Audit(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotOracleCrashRestart commits through the WAL, crashes the
// process (buffer pool and document lost, backend and log keep only what was
// made durable), recovers, and demands that a fresh snapshot transaction on
// the recovered document sees exactly the last committed state.
func TestSnapshotOracleCrashRestart(t *testing.T) {
	m, _, log, backend, segs := newSnapshotLibrary(t, "snapshot")

	var lastDigest uint64
	for i := 0; i < 10; i++ {
		w := m.Begin(tx.LevelRepeatable)
		id := fmt.Sprintf("b-%d-%d", i%2, i%3)
		txt, err := titleText(m, w, id)
		if err == nil {
			err = m.SetValue(w, txt.ID, []byte(fmt.Sprintf("pre-crash-%d", i)))
		}
		if err == nil && i%3 == 0 {
			var bk xmlmodel.Node
			bk, err = m.JumpToID(w, id)
			if err == nil {
				_, err = m.AppendElement(w, bk.ID, "note")
			}
		}
		if err != nil {
			t.Fatalf("writer round %d: %v", i, err)
		}
		if err := w.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		ro := m.Begin(tx.LevelNone)
		lastDigest = docDigest(t, m, ro)
		ro.Commit()
	}

	// Power failure: no Close anywhere, the log and segment store crash.
	log.CrashNow()
	segs.Crash()

	log2, err := wal.Open(segs, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	d2, rep, err := storage.Recover(backend, log2, storage.Options{})
	if err != nil {
		t.Fatalf("recover: %v (report %+v)", err, rep)
	}
	defer d2.Close()
	p, err := protocol.Parse("snapshot")
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(d2, p, Options{Depth: -1, LockTimeout: 500 * time.Millisecond})
	defer m2.Close()
	m2.TxManager().SetWAL(log2)
	m2.EnableSnapshotReads()

	txn := m2.Begin(tx.LevelSnapshot)
	defer txn.Commit()
	if got := docDigest(t, m2, txn); got != lastDigest {
		t.Errorf("post-recovery snapshot digest %x, want last committed %x", got, lastDigest)
	}
	if s := txn.SnapshotLSN(); s == 0 {
		t.Error("post-recovery snapshot pinned LSN 0; WAL lost its snapshot position")
	}
}

// BenchmarkSnapshotReads compares the snapshot contestant's lock-free reads
// against taDOM2 read locks under a background writer, at 1, 16, and 64
// reader goroutines. Each iteration is one read transaction: jump to a book,
// read its value, scan its fragment.
func BenchmarkSnapshotReads(b *testing.B) {
	for _, mode := range []struct {
		name  string
		proto string
		iso   tx.Level
	}{
		{"snapshot", "snapshot", tx.LevelSnapshot},
		{"taDOM2", "taDOM2", tx.LevelRepeatable},
	} {
		for _, par := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/readers=%d", mode.name, par), func(b *testing.B) {
				m, _, _, _, _ := newSnapshotLibrary(b, mode.proto)

				var stop atomic.Bool
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						w := m.Begin(tx.LevelRepeatable)
						txt, err := titleText(m, w, "b-1-1")
						if err == nil {
							err = m.SetValue(w, txt.ID, []byte(fmt.Sprintf("r%d", i)))
						}
						if err != nil {
							w.Abort()
							continue
						}
						w.Commit()
						time.Sleep(100 * time.Microsecond)
					}
				}()

				// Exactly par reader goroutines splitting b.N transactions.
				var next atomic.Int64
				next.Store(int64(b.N))
				var readers sync.WaitGroup
				b.ResetTimer()
				readers.Add(par)
				for g := 0; g < par; g++ {
					go func() {
						defer readers.Done()
						for next.Add(-1) >= 0 {
							txn := m.Begin(mode.iso)
							bk, err := m.JumpToID(txn, "b-0-1")
							if err == nil {
								var txt xmlmodel.Node
								if txt, err = titleText(m, txn, "b-0-1"); err == nil {
									_, err = m.Value(txn, txt.ID)
								}
							}
							if err == nil {
								_, err = m.ReadFragment(txn, bk.ID, false)
							}
							if err != nil {
								txn.Abort()
								b.Error(err)
								return
							}
							txn.Commit()
						}
					}()
				}
				readers.Wait()
				b.StopTimer()
				stop.Store(true)
				wg.Wait()
			})
		}
	}
}
