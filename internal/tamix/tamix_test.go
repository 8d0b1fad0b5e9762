package tamix

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/tx"
	"repro/internal/xmlmodel"
)

func TestGenerateBibStructure(t *testing.T) {
	cfg := Scaled(0.05) // 5 topics, 100 books, 50 persons
	doc, cat, err := GenerateBib(pagestore.NewMemBackend(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()

	if len(cat.TopicIDs) != 5 || cat.Books != 100 || len(cat.BookIDs) != 100 {
		t.Fatalf("catalog: %d topics, %d books", len(cat.TopicIDs), cat.Books)
	}
	if len(cat.PersonIDs) != 50 {
		t.Fatalf("catalog: %d persons", len(cat.PersonIDs))
	}
	// Every cataloged ID is resolvable via the ID index.
	for _, id := range append(append([]string{}, cat.BookIDs[:5]...), cat.TopicIDs...) {
		if _, err := doc.ElementByID([]byte(id)); err != nil {
			t.Errorf("id %s unresolvable: %v", id, err)
		}
	}
	// Element counts via the element index.
	count := func(name string) int {
		n := 0
		doc.ElementsByName(name, func(splid.ID) bool { n++; return true })
		return n
	}
	if n := count("book"); n != 100 {
		t.Errorf("book count = %d", n)
	}
	if n := count("topic"); n != 5 {
		t.Errorf("topic count = %d", n)
	}
	if n := count("person"); n != 50 {
		t.Errorf("person count = %d", n)
	}
	if n := count("chapter"); n < 5*100 || n > 10*100 {
		t.Errorf("chapter count = %d, want 500..1000", n)
	}
	if n := count("lend"); n < 9*100 || n > 10*100 {
		t.Errorf("lend count = %d, want 900..1000", n)
	}

	// Structure of one book: title, author, price, chapters, history.
	book, err := doc.ElementByID([]byte(cat.BookIDs[0]))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	doc.ScanChildren(book, func(n xmlmodel.Node) bool {
		names = append(names, doc.Vocabulary().Name(n.Name))
		return true
	})
	want := "[title author price chapters history]"
	if fmt.Sprint(names) != want {
		t.Errorf("book children = %v, want %v", names, want)
	}
}

func TestGenerateBibDeterministic(t *testing.T) {
	cfg := Scaled(0.02)
	d1, c1, err := GenerateBib(pagestore.NewMemBackend(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	d2, c2, err := GenerateBib(pagestore.NewMemBackend(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d1.Size() != d2.Size() {
		t.Errorf("sizes differ: %d vs %d", d1.Size(), d2.Size())
	}
	if fmt.Sprint(c1.BookIDs) != fmt.Sprint(c2.BookIDs) {
		t.Error("catalogs differ")
	}
}

// bibImages are the page counts of two seeded Scaled(0.1) documents and the
// SHA-256 of their pages past their recovery headers: one built in a pool
// that holds it, recorded before the Builder appended to the rightmost leaf,
// and one on a file in a 64-frame pool, where the load evicts leaves it
// remembers, recorded before it remembered them. Both loads write the same
// pages, and a faster load must too.
var bibImages = []struct {
	name   string
	file   bool
	frames int
	pages  int
	hash   string
}{
	{"memory", false, 0, 86, "164dbf40fe253715b34ee783c735ffa3812eb4ed297aaf33a1c241724ddc146d"},
	{"file, 64 frames", true, 64, 86, "164dbf40fe253715b34ee783c735ffa3812eb4ed297aaf33a1c241724ddc146d"},
}

// TestGenerateBibPageImage compares every page of a generated document, not
// only its size, with the image recorded above.
func TestGenerateBibPageImage(t *testing.T) {
	for _, img := range bibImages {
		t.Run(img.name, func(t *testing.T) {
			var be pagestore.Backend = pagestore.NewMemBackend()
			if img.file {
				fb, err := pagestore.OpenFile(filepath.Join(t.TempDir(), "bib.xtc"))
				if err != nil {
					t.Fatal(err)
				}
				be = fb
			}
			cfg := Scaled(0.1)
			cfg.BufferFrames = img.frames
			doc, _, err := GenerateBib(be, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer doc.Close()
			if err := doc.Store().Flush(); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			buf := make([]byte, pagestore.PageSize)
			for id := pagestore.PageID(0); id < be.NumPages(); id++ {
				if err := be.ReadPage(id, buf); err != nil {
					t.Fatal(err)
				}
				h.Write(buf[pagestore.PageHeaderSize:])
			}
			if n, sum := int(be.NumPages()), hex.EncodeToString(h.Sum(nil)); n != img.pages || sum != img.hash {
				t.Errorf("%d pages, SHA-256 %s; recorded %d pages, %s", n, sum, img.pages, img.hash)
			}
		})
	}
}

// BenchmarkGenerateBib reports generated nodes per second of the load path
// on its own, without the benchmark's engine and warm-up: "memory" builds
// the seeded Scaled(0.1) document on a MemBackend, "cold" the cold_jump
// document (Scaled(1.0), 8 chapters and 10 lends per book) on a file in a
// 64-frame pool, with its allocations.
func BenchmarkGenerateBib(b *testing.B) {
	b.Run("memory", func(b *testing.B) {
		benchGenerateBib(b, Scaled(0.1), func() pagestore.Backend { return pagestore.NewMemBackend() })
	})
	b.Run("cold", func(b *testing.B) {
		cfg := Scaled(1.0)
		cfg.ChaptersMin, cfg.ChaptersMax = 8, 8
		cfg.LendsMin, cfg.LendsMax = 10, 10
		cfg.BufferFrames = 64
		path := filepath.Join(b.TempDir(), "bib.xtc")
		b.ReportAllocs()
		benchGenerateBib(b, cfg, func() pagestore.Backend {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				b.Fatal(err)
			}
			fb, err := pagestore.OpenFile(path)
			if err != nil {
				b.Fatal(err)
			}
			return fb
		})
	})
}

func benchGenerateBib(b *testing.B, cfg BibConfig, backend func() pagestore.Backend) {
	nodes := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		be := backend()
		b.StartTimer()
		doc, _, err := GenerateBib(be, cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes += doc.Size()
		b.StopTimer()
		doc.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
}

func TestTxTypeStrings(t *testing.T) {
	for _, typ := range TxTypes {
		if typ.String() == "" || typ.String()[:2] != "TA" {
			t.Errorf("bad name %q", typ.String())
		}
	}
}

// runQuick executes a short CLUSTER1 run for one protocol.
func runQuick(t *testing.T, proto string, iso tx.Level, depth int) *Result {
	t.Helper()
	cfg := Cluster1Config(proto, iso, depth, 0.02, 0.002)
	cfg.Duration = 600 * time.Millisecond
	cfg.MaxStartDelay = 10 * time.Millisecond
	cfg.LockTimeout = 2 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCluster1RunsAllTypes(t *testing.T) {
	res := runQuick(t, "taDOM3+", tx.LevelRepeatable, 7)
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	for _, typ := range []TxType{TAqueryBook, TAchapter, TAlendAndReturn, TArenameTopic} {
		st := res.PerType[typ]
		if st.Committed+st.Aborted == 0 {
			t.Errorf("%v: no activity", typ)
		}
	}
	if res.PerType[TAdelBook].Committed != 0 {
		t.Error("TAdelBook must not run in CLUSTER1")
	}
	if res.Throughput() <= 0 {
		t.Error("throughput should be positive")
	}
	q := res.PerType[TAqueryBook]
	if q.Committed > 0 && (q.MinDur < 0 || q.MaxDur < q.MinDur || q.AvgDur() < q.MinDur) {
		t.Errorf("duration stats inconsistent: min=%v avg=%v max=%v", q.MinDur, q.AvgDur(), q.MaxDur)
	}
}

func TestCluster1UnderEveryProtocolSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long smoke test")
	}
	for _, name := range []string{"Node2PL", "NO2PL", "OO2PL", "Node2PLa", "IRX", "IRIX", "URIX", "taDOM2", "taDOM2+", "taDOM3", "taDOM3+"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := runQuick(t, name, tx.LevelRepeatable, 4)
			if res.Committed == 0 {
				t.Errorf("%s committed nothing (aborted %d, deadlocks %d, timeouts %d)",
					name, res.Aborted, res.Metrics.CounterValue("lock.deadlocks"), res.Metrics.CounterValue("lock.timeouts"))
			}
		})
	}
}

func TestIsolationNoneNeverAborts(t *testing.T) {
	res := runQuick(t, "taDOM3+", tx.LevelNone, 7)
	if res.Aborted != 0 {
		t.Errorf("isolation none aborted %d transactions", res.Aborted)
	}
	if n := res.Metrics.CounterValue("lock.requests"); n != 0 {
		t.Errorf("isolation none issued %d lock requests", n)
	}
}

func TestDepthZeroCollapsesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	deep := runQuick(t, "taDOM3+", tx.LevelRepeatable, 7)
	flat := runQuick(t, "taDOM3+", tx.LevelRepeatable, 0)
	// Depth 0 means document locks: writers serialize the whole document,
	// so throughput must drop well below the fine-granular setting.
	if flat.Committed >= deep.Committed {
		t.Errorf("depth 0 committed %d >= depth 7 committed %d", flat.Committed, deep.Committed)
	}
}

// TestCluster2TwoPLPaysForIDXScan runs TAdelBook single-user twice, one
// topic per run, under Node2PL and taDOM3+ at lock depth 4: the *-2PL group
// must issue far more lock requests (the IDX/M subtree scan) than the
// intention-lock protocols.
func TestCluster2TwoPLPaysForIDXScan(t *testing.T) {
	delBooks := func(proto string) (uint64, time.Duration) {
		doc, cat, err := GenerateBib(pagestore.NewMemBackend(), Scaled(0.02))
		if err != nil {
			t.Fatal(err)
		}
		depth := 4
		eng, err := core.Wrap(doc, nil, core.Config{Protocol: proto, LockDepth: &depth})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		mgr := eng.Manager()
		if len(cat.TopicIDs) < 2 {
			t.Fatalf("%d topics, want 2", len(cat.TopicIDs))
		}
		var total time.Duration
		for i := 0; i < 2; i++ {
			topic := &Catalog{TopicIDs: []string{cat.TopicIDs[i]}, BookIDs: cat.BookIDs}
			t0 := time.Now()
			if err := Serial(mgr, topic, map[TxType]int{TAdelBook: 1}, tx.LevelRepeatable, int64(i), 1); err != nil {
				t.Fatal(err)
			}
			total += time.Since(t0)
		}
		return mgr.LockManager().Stats().Requests, total
	}
	twoPL, twoPLTime := delBooks("Node2PL")
	tadom, tadomTime := delBooks("taDOM3+")
	if twoPL < 4*tadom {
		t.Errorf("Node2PL requests %d not >> taDOM3+ requests %d", twoPL, tadom)
	}
	if twoPLTime <= 0 || tadomTime <= 0 {
		t.Error("durations must be positive")
	}
}

func TestScaledConfigs(t *testing.T) {
	c := Scaled(1.0)
	d := DefaultBibConfig()
	if c.Topics != d.Topics || c.Persons != d.Persons {
		t.Error("Scaled(1.0) should be the paper config")
	}
	small := Scaled(0.001)
	if small.Topics < 1 || small.Persons < 1 {
		t.Error("scaling must keep at least one of each")
	}
	paper := Cluster1Config("taDOM3+", tx.LevelRepeatable, 5, 1, 1)
	if paper.Duration != 5*time.Minute || paper.WaitAfterCommit != 2500*time.Millisecond ||
		paper.WaitAfterOperation != 100*time.Millisecond || paper.MaxStartDelay != 5000*time.Millisecond ||
		paper.LockTimeout != 5*time.Second {
		t.Errorf("timeScale 1 should carry the paper's intervals: %+v", paper)
	}
	scaled := Cluster1Config("taDOM3+", tx.LevelRepeatable, 5, 1, 0.01)
	if scaled.Duration >= paper.Duration || scaled.WaitAfterCommit >= paper.WaitAfterCommit ||
		scaled.WaitAfterOperation >= paper.WaitAfterOperation || scaled.MaxStartDelay >= paper.MaxStartDelay ||
		scaled.LockTimeout >= paper.LockTimeout {
		t.Errorf("timeScale 0.01 should shrink every interval: %+v", scaled)
	}
	mix := Cluster1Mix()
	total := 0
	for _, n := range mix {
		total += n
	}
	if total != 24 {
		t.Errorf("CLUSTER1 mix has %d slots per client, want 24", total)
	}
}

func TestUpdateLocksReduceConversionDeadlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// Hammer TAlendAndReturn on a single book so every transaction converts
	// on the same history node. The plain path reproduces the symmetric
	// LR -> CX conversion deadlock of Figures 3b/4; declaring the intent
	// with SU up front serializes the writers and structurally removes it.
	run := func(updateLocks bool) *Result {
		cfg := Cluster1Config("taDOM2", tx.LevelRepeatable, 7, 0.005, 0.002)
		cfg.Bib.Topics = 1
		cfg.Bib.BooksPerTopic = 1
		cfg.Mix = map[TxType]int{TAlendAndReturn: 12}
		cfg.Duration = 800 * time.Millisecond
		cfg.MaxStartDelay = 5 * time.Millisecond
		cfg.UseUpdateLocks = updateLocks
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	update := run(true)
	conv := func(r *Result) uint64 { return r.Metrics.CounterValue("lock.conversion_deadlocks") }
	if conv(plain) == 0 {
		t.Skip("workload produced no conversion deadlocks to ablate")
	}
	// Compare deadlocks per executed transaction: update intent must cut
	// the conversion-deadlock rate drastically (structurally it eliminates
	// the history-node cycle; residual cycles come from path locks).
	rate := func(r *Result) float64 {
		return float64(conv(r)) / float64(r.Committed+r.Aborted+1)
	}
	if rate(update) > rate(plain)/2 {
		t.Errorf("update locks did not reduce the conversion-deadlock rate: %.3f (%d/%d) -> %.3f (%d/%d)",
			rate(plain), conv(plain), plain.Committed+plain.Aborted,
			rate(update), conv(update), update.Committed+update.Aborted)
	}
}
