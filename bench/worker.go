package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tamix"
	"repro/internal/tx"
	"repro/internal/xmlmodel"
)

// TaMix's restart budget: a deadlock or timeout victim is retried up to
// maxRestarts times with a jittered exponential backoff.
const (
	maxRestarts = tamix.DefaultMaxRestarts
	restartBase = tamix.DefaultRestartBackoff
	restartCap  = tamix.DefaultRestartMaxBackoff
)

// Sizes of a worker's preallocated buffers: the latencies of one window (far
// more than a window can hold, so the slice never grows and mem_live_mb does
// not depend on run length) and the node ids kept for the btree probe.
const (
	latencyReserve = 1 << 14
	touchedKeep    = 4096
)

// txKind is a transaction script.
type txKind int

const (
	txQueryBook txKind = iota
	txChapter
	txRenameTopic
	txLendAndReturn
	txColdJump
)

// mark is a value a committed transaction left in the document, with the
// order it was written in. seq is drawn while the writer still holds its
// exclusive lock, so for one node the largest acknowledged seq is the value
// the document must hold.
type mark struct {
	id    splid.ID // text node that holds the value
	value string
	seq   uint64
}

// worker is one closed-loop client: it runs one transaction after the other
// on its own session and never has two in flight.
type worker struct {
	id     int
	ops    ops
	rng    *rand.Rand // op stream and backoff jitter
	cat    *tamix.Catalog
	mix    []txKind // transaction type per draw
	sumSur xmlmodel.Sur
	seq    *atomic.Uint64 // shared write order, see mark
	rec    *recorder      // nil unless traced

	txns    uint32
	pending mark
	marked  bool
	acks    map[string]mark
	touched []splid.ID // node ids seen (traced run only), input of the btree probe
	oracle  map[string]int

	lat                []int64 // latencies of the current window, ns
	committed, failed  int
	restarts, vanished int
	backoffNS          int64
	fatal              error
}

// errVanished marks a target that a concurrent transaction removed; the
// transaction commits as a no-op, as in tamix/txns.go.
var errVanished = errors.New("bench: target vanished")

func (w *worker) pick(ids []string) string { return ids[w.rng.Intn(len(ids))] }

func (w *worker) touch(id splid.ID) {
	if w.rec != nil && len(w.touched) < touchedKeep {
		w.touched = append(w.touched, id)
	}
}

// traverseBook is the read profile TAqueryBook and TAchapter share: jump to
// the book, then read each child subtree in document order. It returns the
// summary text nodes it saw and how many nodes it read.
func (w *worker) traverseBook(bookID string) (summaries []splid.ID, nodes int, err error) {
	book, err := w.ops.JumpToID(bookID)
	if err != nil {
		return nil, 0, err
	}
	w.touch(book.ID)
	child, err := w.ops.FirstChild(book.ID)
	if err != nil {
		return nil, 0, err
	}
	for !child.ID.IsNull() {
		w.touch(child.ID)
		frag, err := w.ops.ReadFragment(child.ID, false)
		if err != nil {
			return nil, 0, err
		}
		nodes += len(frag)
		for i, n := range frag {
			if n.Kind == xmlmodel.KindElement && n.Name == w.sumSur && i+1 < len(frag) {
				if txt := frag[i+1]; txt.Kind == xmlmodel.KindText {
					summaries = append(summaries, txt.ID)
				}
			}
		}
		child, err = w.ops.NextSibling(child.ID)
		if err != nil {
			return nil, 0, err
		}
	}
	return summaries, nodes, nil
}

func (w *worker) queryBook() error {
	id := w.pick(w.cat.BookIDs)
	_, nodes, err := w.traverseBook(id)
	if err != nil {
		return err
	}
	// The oracle is only filled where the document never changes.
	if want, ok := w.oracle[id]; ok && nodes != want {
		return fmt.Errorf("bench: TAqueryBook %s read %d nodes, document has %d", id, nodes, want)
	}
	return nil
}

func (w *worker) chapter() error {
	summaries, _, err := w.traverseBook(w.pick(w.cat.BookIDs))
	if err != nil {
		return err
	}
	if len(summaries) == 0 {
		return errVanished
	}
	target := summaries[w.rng.Intn(len(summaries))]
	value := fmt.Sprintf("Revised by worker %d in tx %010d.", w.id, w.txns)
	if err := w.ops.SetValue(target, []byte(value)); err != nil {
		return err
	}
	w.pending, w.marked = mark{id: target, value: value}, true
	return nil
}

// lendProbability is the chance that TAlendAndReturn lends when the history
// holds n lends. tamix flips a fair coin, which lets every history random-walk
// upwards without bound; the benchmark needs a document that stays the same
// size however long it runs, so the coin leans back towards the generated 9-10
// lends.
func lendProbability(n int) float64 {
	p := 1 - float64(n)/20
	if p < 0 {
		return 0
	}
	return p
}

func (w *worker) lendAndReturn() error {
	book, err := w.ops.JumpToID(w.pick(w.cat.BookIDs))
	if err != nil {
		return err
	}
	w.touch(book.ID)
	history, err := w.ops.LastChild(book.ID)
	if err != nil {
		return err
	}
	if history.ID.IsNull() {
		return errVanished
	}
	w.touch(history.ID)
	lends, err := w.ops.GetChildren(history.ID)
	if err != nil {
		return err
	}
	person := w.pick(w.cat.PersonIDs)
	if len(lends) <= 1 || w.rng.Float64() < lendProbability(len(lends)) {
		lend, err := w.ops.AppendElement(history.ID, "lend")
		if err != nil {
			return err
		}
		if err := w.ops.SetAttribute(lend.ID, "person", []byte(person)); err != nil {
			return err
		}
		return w.ops.SetAttribute(lend.ID, "return", []byte("2006-09-12"))
	}
	return w.ops.DeleteSubtree(lends[w.rng.Intn(len(lends))].ID)
}

var renameNames = []string{"topic", "theme", "subject", "category"}

func (w *worker) renameTopic() error {
	topic, err := w.ops.JumpToID(w.pick(w.cat.TopicIDs))
	if err != nil {
		return err
	}
	w.touch(topic.ID)
	return w.ops.Rename(topic.ID, renameNames[w.rng.Intn(len(renameNames))])
}

// coldJumps is how many point lookups one cold_jump transaction makes.
const coldJumps = 8

// coldJump makes coldJumps point lookups on uniformly random persons and
// books. It is read-only: with a write mixed in, the engine fails reads with
// pagestore.ErrNoFrames whenever the other worker's page capture outlasts the
// small pool (every page fixed during a capture stays pinned until it
// closes), and a workload may not contain operations that fail.
func (w *worker) coldJump() error {
	for i := 0; i < coldJumps; i++ {
		ids := w.cat.PersonIDs
		if w.rng.Intn(2) == 0 {
			ids = w.cat.BookIDs
		}
		el, err := w.ops.JumpToID(w.pick(ids))
		if err != nil {
			return err
		}
		w.touch(el.ID)
		attrs, err := w.ops.GetAttributes(el.ID)
		if err != nil {
			return err
		}
		if el.Kind != xmlmodel.KindElement || len(attrs) == 0 {
			return fmt.Errorf("bench: jump target %v is a %v with %d attributes", el.ID, el.Kind, len(attrs))
		}
	}
	return nil
}

func (w *worker) script(k txKind) error {
	switch k {
	case txQueryBook:
		return w.queryBook()
	case txChapter:
		return w.chapter()
	case txRenameTopic:
		return w.renameTopic()
	case txLendAndReturn:
		return w.lendAndReturn()
	default:
		return w.coldJump()
	}
}

// runTxn drives one logical transaction to its commit, restarting it after
// deadlock and timeout aborts, and records its latency from the first Begin.
// It reports false when the worker cannot go on.
func (w *worker) runTxn() bool {
	t0 := time.Now()
	w.txns++
	if w.rec != nil {
		w.rec.beginTxn(uint32(w.id)<<24|w.txns&0xffffff, t0)
	}
	kind := w.mix[w.rng.Intn(len(w.mix))]
	backoff := restartBase
	for restarts := 0; ; restarts++ {
		w.marked = false
		if err := w.ops.Begin(); err != nil {
			return w.giveUp(t0, fmt.Errorf("begin: %w", err))
		}
		err := w.script(kind)
		if errors.Is(err, errVanished) || errors.Is(err, storage.ErrNodeNotFound) {
			w.vanished++
			err = nil
		}
		if err == nil {
			if w.marked {
				w.pending.seq = w.seq.Add(1)
			}
			if err = w.ops.Commit(); err == nil {
				d := time.Since(t0)
				w.lat = append(w.lat, int64(d))
				w.committed++
				if w.marked {
					w.acks[w.pending.id.String()] = w.pending
				}
				if w.rec != nil {
					w.rec.endTxn(d, true)
				}
				return true
			}
		}
		if aerr := w.ops.Abort(); aerr != nil && !errors.Is(aerr, tx.ErrTxnDone) {
			return w.giveUp(t0, fmt.Errorf("abort after %v: %w", err, aerr))
		}
		if !node.IsAbortWorthy(err) {
			return w.giveUp(t0, err)
		}
		if restarts >= maxRestarts {
			// Dropped after the restart budget: a failed transaction, but the
			// engine is intact and the worker goes on.
			w.failed++
			if w.rec != nil {
				w.rec.endTxn(time.Since(t0), false)
			}
			return true
		}
		d := backoff/2 + time.Duration(w.rng.Int63n(int64(backoff)))
		if backoff *= 2; backoff > restartCap {
			backoff = restartCap
		}
		w.restarts++
		w.backoffNS += int64(d)
		var s int64
		if w.rec != nil {
			s = w.rec.now()
		}
		time.Sleep(d)
		if w.rec != nil {
			w.rec.end(spBackoff, s)
		}
	}
}

// giveUp records a transaction that failed with an error no restart cures.
func (w *worker) giveUp(t0 time.Time, err error) bool {
	w.failed++
	w.fatal = fmt.Errorf("worker %d tx %d: %w", w.id, w.txns, err)
	if w.rec != nil {
		w.rec.endTxn(time.Since(t0), false)
	}
	return false
}
