// Command xtc inspects XTC document files, XML documents and generated TaMix
// bib documents (Section 4.3) through the storage layer: node statistics,
// SPLID sizes, B*-tree shapes, vocabulary, and optional subtree dumps.
//
// Usage:
//
//	xtc -load doc.xml -stats             # import XML, print statistics
//	xtc -bib 0.01 -dump root             # print a small generated bib as XML
//	xtc -bib 0.1 -open bib.xtc -verify   # generate a bib into an empty file
//	xtc -open bib.xtc -stats             # inspect a stored document file
//	xtc -open bib.xtc -dump 1.17.17      # export one subtree as XML
//	xtc -open bib.xtc -id b42            # resolve an id attribute
//	xtc -load doc.xml -verify            # run the structural verifier
//	xtc -open bib.xtc -wal bib.wal -stats
//	                                     # open with its write-ahead log: the
//	                                     # document is restarted from it (after
//	                                     # a crash that replays the log; after a
//	                                     # clean close it finds nothing to do)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/tamix"
	"repro/internal/wal"
)

func main() {
	var (
		load      = flag.String("load", "", "XML file to import into a fresh in-memory document")
		open      = flag.String("open", "", "XTC document file to open")
		bib       = flag.Float64("bib", 0, "generate the TaMix bib document at this scale (1.0 = the paper's 2000 books), in memory or into an empty -open file")
		stats     = flag.Bool("stats", false, "print document statistics")
		verify    = flag.Bool("verify", false, "run the structural verifier")
		dump      = flag.String("dump", "", "SPLID of a subtree to export as XML (\"root\" for everything)")
		id        = flag.String("id", "", "resolve an id attribute value to its element")
		walDir    = flag.String("wal", "", "directory of the document's write-ahead log segments (a stored document is restarted from them)")
		metricsFl = flag.Bool("metrics", false, "print the engine's counters and latency digests after the run")
	)
	flag.Parse()

	var backend pagestore.Backend
	switch {
	case *load != "" && (*open != "" || *bib != 0):
		fatal(fmt.Errorf("-load excludes -open and -bib"))
	case *open != "":
		fb, err := pagestore.OpenFile(*open)
		if err != nil {
			fatal(err)
		}
		switch {
		case fb.NumPages() == 0 && *bib == 0:
			fatal(fmt.Errorf("%s holds no document", *open))
		case fb.NumPages() > 0 && *bib != 0:
			fatal(fmt.Errorf("%s is not empty: -bib generates only into an empty file", *open))
		}
		backend = fb
	case *load != "" || *bib != 0:
		backend = pagestore.NewMemBackend()
	default:
		flag.Usage()
		os.Exit(2)
	}
	var segs wal.SegmentStore
	if *walDir != "" {
		fs, err := wal.NewFileSegmentStore(*walDir)
		if err != nil {
			fatal(err)
		}
		segs = fs
	}
	var eng *core.Engine
	var err error
	if *bib != 0 {
		var doc *storage.Document
		if doc, _, err = tamix.GenerateBib(backend, tamix.Scaled(*bib)); err == nil {
			eng, err = core.Wrap(doc, segs, core.Config{})
		}
	} else {
		eng, err = core.Open(backend, segs, core.Config{})
	}
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		err = eng.Load(bufio.NewReader(f))
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if rep := eng.Recovery(); rep != nil {
		printRecovery(rep)
	}
	doc := eng.Manager().Document()

	if *stats {
		st, err := doc.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("nodes:      %d elements, %d texts, %d attributes (%d roots), %d strings\n",
			st.Elements, st.Texts, st.Attributes, st.AttrRoots, st.Strings)
		fmt.Printf("depth:      %d levels (incl. virtual attribute/string nodes)\n", st.MaxDepth)
		fmt.Printf("SPLIDs:     %.2f bytes average (%d total)\n", st.AvgSplid(), st.SplidBytes)
		fmt.Printf("content:    %d bytes of character data\n", st.ValueBytes)
		fmt.Printf("vocabulary: %d names\n", doc.Vocabulary().Len())
		fmt.Printf("doc tree:   depth %d, %d leaf + %d internal pages, %d keys, separators %.1fB avg\n",
			st.DocTree.Depth, st.DocTree.LeafPages, st.DocTree.InternalPages, st.DocTree.Keys, avgSep(st.DocTree))
		if st.DocTree.Keys > 0 {
			fmt.Printf("key store:  %.2f bytes/key after page prefix compression (logical %.2f)\n",
				float64(st.DocTree.KeyBytes+st.DocTree.PrefixBytes)/float64(st.DocTree.Keys),
				st.AvgSplid())
		}
		fmt.Printf("elem index: depth %d, %d keys\n", st.ElemTree.Depth, st.ElemTree.Keys)
		fmt.Printf("id index:   depth %d, %d keys\n", st.IDTree.Depth, st.IDTree.Keys)
		bs := doc.Store().Stats()
		fmt.Printf("buffer:     %d hits, %d misses, %d evictions, %d writebacks (%d by flusher)\n",
			bs.Hits, bs.Misses, bs.Evictions, bs.Writebacks, bs.FlusherWrites)
	}
	if *verify {
		if err := doc.Verify(); err != nil {
			fatal(err)
		}
		fmt.Println("verify: ok")
	}
	if *id != "" {
		el, err := doc.ElementByID([]byte(*id))
		if err != nil {
			fatal(err)
		}
		n, err := doc.GetNode(el)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("id %q -> %s element at %v\n", *id, doc.Vocabulary().Name(n.Name), el)
	}
	if *dump != "" {
		target := doc.Root()
		if *dump != "root" {
			target, err = splid.Parse(*dump)
			if err != nil {
				fatal(err)
			}
		}
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		if err := doc.ExportXML(w, target); err != nil {
			fatal(err)
		}
	}
	if *metricsFl {
		eng.Metrics().WriteText(os.Stdout)
	}
}

func printRecovery(rep *storage.RecoveryReport) {
	var winners []uint64
	for txn := range rep.Committed {
		winners = append(winners, txn)
	}
	sort.Slice(winners, func(i, j int) bool { return winners[i] < winners[j] })
	fmt.Printf("recovery:   %d log records, %d deltas redone, %d skipped, %d pages healed\n",
		rep.Records, rep.RedoneOps, rep.SkippedOps, rep.HealedPages)
	fmt.Printf("            committed %v, rolled back %v (%d ops undone)\n",
		winners, rep.Losers, rep.UndoneOps)
	if rep.CheckpointLSN != 0 {
		fmt.Printf("            checkpoint at LSN %d bounded the scan\n", rep.CheckpointLSN)
	}
}

func avgSep(st btree.TreeStats) float64 {
	if st.Separators == 0 {
		return 0
	}
	return float64(st.SeparatorBytes) / float64(st.Separators)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xtc:", err)
	os.Exit(1)
}
