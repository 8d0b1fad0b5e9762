package tamix

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/xmlmodel"
)

// TxType enumerates the TaMix transaction types (Section 4.2).
type TxType int

const (
	// TAqueryBook jumps to a random book by ID and reads its subtree with
	// navigational operations — the reader load of CLUSTER1.
	TAqueryBook TxType = iota
	// TAchapter has the same read profile followed by an update of a
	// chapter's summary text node.
	TAchapter
	// TAdelBook reads a random topic and deletes one of its book subtrees —
	// the CLUSTER2 transaction.
	TAdelBook
	// TAlendAndReturn locates a random book and either attaches a new lend
	// subtree under its history or removes one — the lock-conversion
	// workhorse (the Figure 3b scenario).
	TAlendAndReturn
	// TArenameTopic locates a topic by ID and renames it (DOM 3
	// renameNode).
	TArenameTopic
)

// String implements fmt.Stringer.
func (t TxType) String() string {
	switch t {
	case TAqueryBook:
		return "TAqueryBook"
	case TAchapter:
		return "TAchapter"
	case TAdelBook:
		return "TAdelBook"
	case TAlendAndReturn:
		return "TAlendAndReturn"
	case TArenameTopic:
		return "TArenameTopic"
	default:
		return fmt.Sprintf("TxType(%d)", int(t))
	}
}

// TxTypes lists all transaction types in presentation order.
var TxTypes = []TxType{TAqueryBook, TAchapter, TAdelBook, TAlendAndReturn, TArenameTopic}

// ReadOnly reports whether the transaction type never updates the document.
// TAqueryBook is the mix's pure reader; engines with snapshot reads run it
// at tx.LevelSnapshot so it bypasses the lock manager entirely.
func (t TxType) ReadOnly() bool { return t == TAqueryBook }

// runner executes transaction bodies against one engine (in-process or
// remote; see Engine); m spells the engine's node operations as typed calls.
type runner struct {
	eng    Engine
	m      wire.Ops[Txn]
	cat    *Catalog
	rng    *rand.Rand
	waitOp time.Duration
	// updateLocks switches TAlendAndReturn to declare its write intent with
	// an update-mode subtree lock (URIX's U, taDOM's SU) instead of the
	// read-then-convert pattern of Figure 3b — the ablation behind the
	// paper's observation that lock conversions are the dominant deadlock
	// source.
	updateLocks bool
}

func newRunner(eng Engine, cat *Catalog, rng *rand.Rand) *runner {
	return &runner{eng: eng, m: wire.Ops[Txn]{Do: eng.Do}, cat: cat, rng: rng}
}

// pause models the client think time between operations
// (waitAfterOperation).
func (r *runner) pause() {
	if r.waitOp > 0 {
		time.Sleep(r.waitOp)
	}
}

// errVanished marks benign races on documents shrunk by concurrent deletes;
// the transaction commits as a no-op.
var errVanished = errors.New("tamix: target vanished")

// run executes one transaction body. The caller commits on nil and aborts
// on error.
func (r *runner) run(t TxType, txn Txn) error {
	var err error
	switch t {
	case TAqueryBook:
		err = r.queryBook(txn)
	case TAchapter:
		err = r.chapter(txn)
	case TAdelBook:
		err = r.delBook(txn)
	case TAlendAndReturn:
		err = r.lendAndReturn(txn)
	case TArenameTopic:
		err = r.renameTopic(txn)
	default:
		err = fmt.Errorf("tamix: unknown transaction type %v", t)
	}
	if errors.Is(err, errVanished) || errors.Is(err, storage.ErrNodeNotFound) {
		return nil
	}
	return err
}

func (r *runner) randBook() string { return r.cat.BookIDs[r.rng.Intn(len(r.cat.BookIDs))] }
func (r *runner) randTopic() string {
	return r.cat.TopicIDs[r.rng.Intn(len(r.cat.TopicIDs))]
}
func (r *runner) randPerson() string {
	return r.cat.PersonIDs[r.rng.Intn(len(r.cat.PersonIDs))]
}

// traverseBook is the shared read profile of TAqueryBook and TAchapter:
// jump to the book, then visit each child subtree in document order
// (Figure 3b: NR on the book, subtree reads on title, author, ...). It
// returns the IDs of the chapter summary text nodes encountered.
func (r *runner) traverseBook(txn Txn, bookID string) (summaries []splid.ID, err error) {
	book, err := r.m.JumpToID(txn, bookID)
	if err != nil {
		return nil, err
	}
	r.pause()
	child, err := r.m.FirstChild(txn, book.ID)
	if err != nil {
		return nil, err
	}
	sumSur, _ := r.eng.LookupName("summary")
	for !child.ID.IsNull() {
		frag, err := r.m.ReadFragment(txn, child.ID, false)
		if err != nil {
			return nil, err
		}
		for i, n := range frag {
			if n.Kind == xmlmodel.KindElement && n.Name == sumSur && i+1 < len(frag) {
				if txt := frag[i+1]; txt.Kind == xmlmodel.KindText {
					summaries = append(summaries, txt.ID)
				}
			}
		}
		r.pause()
		child, err = r.m.NextSibling(txn, child.ID)
		if err != nil {
			return nil, err
		}
	}
	return summaries, nil
}

func (r *runner) queryBook(txn Txn) error {
	_, err := r.traverseBook(txn, r.randBook())
	return err
}

func (r *runner) chapter(txn Txn) error {
	summaries, err := r.traverseBook(txn, r.randBook())
	if err != nil {
		return err
	}
	if len(summaries) == 0 {
		return errVanished
	}
	r.pause()
	target := summaries[r.rng.Intn(len(summaries))]
	return r.m.SetValue(txn, target,
		[]byte(fmt.Sprintf("Revised at %d by tx %d.", time.Now().UnixNano(), txn.ID())))
}

func (r *runner) delBook(txn Txn) error {
	// Same operational read profile as TAqueryBook, but on a random topic:
	// jump to the topic and traverse each book subtree navigationally, then
	// delete one book subtree. Under the *-2PL protocols both the traversal
	// (node-by-node T/CS locks) and the delete (IDX/M subtree scan) are
	// expensive; the intention-lock protocols cover each book with one
	// subtree lock — the CLUSTER2 gap of Figure 11.
	topic, err := r.m.JumpToID(txn, r.randTopic())
	if err != nil {
		return err
	}
	r.pause()
	var books []splid.ID
	child, err := r.m.FirstChild(txn, topic.ID)
	if err != nil {
		return err
	}
	for !child.ID.IsNull() {
		books = append(books, child.ID)
		if _, err := r.m.ReadFragment(txn, child.ID, false); err != nil {
			return err
		}
		r.pause()
		child, err = r.m.NextSibling(txn, child.ID)
		if err != nil {
			return err
		}
	}
	if len(books) == 0 {
		return errVanished
	}
	r.pause()
	return r.m.DeleteSubtree(txn, books[r.rng.Intn(len(books))])
}

func (r *runner) lendAndReturn(txn Txn) error {
	book, err := r.m.JumpToID(txn, r.randBook())
	if err != nil {
		return err
	}
	r.pause()
	// getChildNodes on history: the LR lock whose later conversion to CX is
	// exactly the scenario of Figures 3b and 4. In update-lock mode the
	// intent is declared at first touch instead (SU/U via
	// UpdateLastChildFragment), serializing intending writers without the
	// conversion deadlock.
	var history xmlmodel.Node
	var lends []xmlmodel.Node
	if r.updateLocks {
		h, frag, err := r.m.UpdateLastChildFragment(txn, book.ID)
		if err != nil {
			return err
		}
		if h.ID.IsNull() {
			return errVanished
		}
		history = h
		for _, n := range frag {
			if n.Kind == xmlmodel.KindElement && n.ID.ChildOf(history.ID) {
				lends = append(lends, n)
			}
		}
	} else {
		history, err = r.m.LastChild(txn, book.ID)
		if err != nil {
			return err
		}
		if history.ID.IsNull() {
			return errVanished
		}
		lends, err = r.m.GetChildren(txn, history.ID)
		if err != nil {
			return err
		}
	}
	r.pause()
	if r.rng.Intn(2) == 0 || len(lends) <= 1 {
		// Lend the book: attach lend' with person and return attributes.
		lend, err := r.m.AppendElement(txn, history.ID, "lend")
		if err != nil {
			return err
		}
		r.pause()
		if err := r.m.SetAttribute(txn, lend.ID, "person", []byte(r.randPerson())); err != nil {
			return err
		}
		return r.m.SetAttribute(txn, lend.ID, "return",
			[]byte(time.Now().Format("2006-01-02")))
	}
	// Return the book: remove a lend entry.
	victim := lends[r.rng.Intn(len(lends))]
	return r.m.DeleteSubtree(txn, victim.ID)
}

// renameNames cycles TArenameTopic's names so every rename really changes
// the element's name.
var renameNames = []string{"topic", "theme", "subject", "category"}

func (r *runner) renameTopic(txn Txn) error {
	topic, err := r.m.JumpToID(txn, r.randTopic())
	if err != nil {
		return err
	}
	r.pause()
	return r.m.Rename(txn, topic.ID, renameNames[r.rng.Intn(len(renameNames))])
}
