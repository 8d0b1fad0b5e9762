package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a call the harness makes into the program under test.
type spanKind uint8

const (
	spTxn spanKind = iota // one logical transaction, first Begin to final Commit
	spBegin
	spCommit
	spAbort
	spBackoff
	spJumpToID
	spFirstChild
	spLastChild
	spNextSibling
	spGetChildren
	spGetAttributes
	spReadFragment
	spSetValue
	spRename
	spAppendElement
	spSetAttribute
	spDeleteSubtree
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"Txn", "Begin", "Commit", "Abort", "Backoff",
	"JumpToID", "FirstChild", "LastChild", "NextSibling", "GetChildren",
	"GetAttributes", "ReadFragment",
	"SetValue", "Rename", "AppendElement", "SetAttribute", "DeleteSubtree",
}

// isRead and isWrite classify the node operations (Begin, Commit, Abort and
// Backoff are neither).
func (k spanKind) isRead() bool  { return k >= spJumpToID && k <= spReadFragment }
func (k spanKind) isWrite() bool { return k >= spSetValue && k <= spDeleteSubtree }

// span is one recorded call. Parent is the index of the transaction span that
// caused it (-1 for a transaction span); Start and End are nanoseconds since
// the recorder's epoch.
type span struct {
	Kind       spanKind
	Parent     int32
	Txn        uint32
	Start, End int64
}

// spanAgg sums every span of one kind, kept or not.
type spanAgg struct {
	n  int64
	ns int64
}

// traceKeep is how many spans per worker go to the trace file; the sums that
// feed the per-layer metrics cover every span.
const traceKeep = 20000

// recorder is one worker's span buffer. It is preallocated and owned by the
// worker's goroutine, so recording takes no lock and allocates nothing.
type recorder struct {
	epoch time.Time
	spans []span
	agg   [nSpanKinds]spanAgg

	txnIdx  int32
	txnID   uint32
	txnT0   time.Time
	childNS int64 // child-span time of the open transaction

	// Ledger over committed transactions: the time their child spans cover
	// and their whole latency.
	coveredNS, latencyNS int64
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, traceKeep)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// end closes a child span of the open transaction that began at start.
func (r *recorder) end(kind spanKind, start int64) {
	e := r.now()
	d := e - start
	r.agg[kind].n++
	r.agg[kind].ns += d
	r.childNS += d
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, span{Kind: kind, Parent: r.txnIdx, Txn: r.txnID, Start: start, End: e})
	}
}

// beginTxn opens transaction id at t0.
func (r *recorder) beginTxn(id uint32, t0 time.Time) {
	r.txnID, r.txnT0, r.childNS, r.txnIdx = id, t0, 0, -1
	if len(r.spans) < cap(r.spans) {
		r.txnIdx = int32(len(r.spans))
		r.spans = append(r.spans, span{Kind: spTxn, Parent: -1, Txn: id, Start: int64(t0.Sub(r.epoch))})
	}
}

// endTxn closes the open transaction, which took d and committed or not.
func (r *recorder) endTxn(d time.Duration, committed bool) {
	r.agg[spTxn].n++
	r.agg[spTxn].ns += int64(d)
	if committed {
		r.coveredNS += r.childNS
		r.latencyNS += int64(d)
	}
	if r.txnIdx >= 0 {
		r.spans[r.txnIdx].End = r.spans[r.txnIdx].Start + int64(d)
	}
}

// reset drops everything recorded so far (warm-up spans).
func (r *recorder) reset() {
	*r = recorder{epoch: r.epoch, spans: r.spans[:0]}
}

// writeTrace writes the kept spans of every worker to
// bench/out/trace-<workload>.json. A span's id is its index within its
// worker, so (worker, parent) names the causing span.
func writeTrace(dir, workload string, seed int64, recs []*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns since epoch\",\"spans\":[", workload, seed)
	first := true
	for wi, r := range recs {
		for i, s := range r.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n{\"worker\":%d,\"id\":%d,\"parent\":%d,\"txn\":%d,\"name\":%q,\"start\":%d,\"end\":%d}",
				wi, i, s.Parent, s.Txn, spanNames[s.Kind], s.Start, s.End)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
