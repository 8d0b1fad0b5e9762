// Command xtc inspects XTC document files and XML documents through the
// storage layer: node statistics, SPLID sizes, B*-tree shapes, vocabulary,
// and optional subtree dumps.
//
// Usage:
//
//	xtc -load doc.xml -stats             # import XML, print statistics
//	xtc -open bib.xtc -stats             # inspect a stored document file
//	xtc -open bib.xtc -dump 1.17.17      # export one subtree as XML
//	xtc -open bib.xtc -id b42            # resolve an id attribute
//	xtc -load doc.xml -verify            # run the structural verifier
//	xtc -open bib.xtc -wal bib.wal       # attach a write-ahead log
//	xtc -open bib.xtc -wal bib.wal -recover -stats
//	                                     # replay the log after a crash
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/metrics"
	"repro/internal/pagestore"
	"repro/internal/splid"
	"repro/internal/storage"
	"repro/internal/wal"
)

func main() {
	var (
		load      = flag.String("load", "", "XML file to import into a fresh in-memory document")
		open      = flag.String("open", "", "XTC document file to open")
		stats     = flag.Bool("stats", false, "print document statistics")
		verify    = flag.Bool("verify", false, "run the structural verifier")
		dump      = flag.String("dump", "", "SPLID of a subtree to export as XML (\"root\" for everything)")
		id        = flag.String("id", "", "resolve an id attribute value to its element")
		walDir    = flag.String("wal", "", "directory of write-ahead log segments to attach")
		recover   = flag.Bool("recover", false, "run ARIES-style recovery from -wal before opening (requires -open)")
		metricsFl = flag.Bool("metrics", false, "print the buffer/WAL latency digests after the run")
	)
	flag.Parse()

	// One registry for the whole invocation: the buffer pool and the WAL
	// report into it and -metrics prints the digests at the end.
	var reg *metrics.Registry
	if *metricsFl {
		reg = metrics.NewRegistry()
	}
	opts := storage.Options{Metrics: reg}

	var log *wal.Log
	if *walDir != "" {
		segs, serr := wal.NewFileSegmentStore(*walDir)
		if serr != nil {
			fatal(serr)
		}
		var lerr error
		log, lerr = wal.Open(segs, wal.Config{Metrics: reg})
		if lerr != nil {
			fatal(lerr)
		}
	}
	if *recover && (*open == "" || log == nil) {
		fatal(fmt.Errorf("-recover requires both -open and -wal"))
	}

	var doc *storage.Document
	var err error
	switch {
	case *load != "" && *open != "":
		fatal(fmt.Errorf("-load and -open are mutually exclusive"))
	case *load != "":
		f, ferr := os.Open(*load)
		if ferr != nil {
			fatal(ferr)
		}
		doc, err = storage.Create(pagestore.NewMemBackend(), "doc", opts)
		if err == nil {
			err = doc.ImportXML(bufio.NewReader(f))
		}
		f.Close()
		if err == nil && log != nil {
			err = doc.AttachWAL(log)
		}
	case *open != "":
		fb, ferr := pagestore.OpenFile(*open)
		if ferr != nil {
			fatal(ferr)
		}
		if *recover {
			var rep *storage.RecoveryReport
			doc, rep, err = storage.Recover(fb, log, opts)
			if err == nil {
				printRecovery(rep)
			}
		} else {
			doc, err = storage.Open(fb, opts)
			if err == nil && log != nil {
				err = doc.AttachWAL(log)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	defer doc.Close()

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
		fmt.Printf("buffer:     %d shards, %d hits, %d misses, %d evictions, %d writebacks (%d by flusher)\n",
			doc.Store().Shards(), bs.Hits, bs.Misses, bs.Evictions, bs.Writebacks, bs.FlusherWrites)
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
		printMetrics(reg.Snapshot())
	}
}

// printMetrics prints the registry's latency digests and counters — the
// offline twin of xtcd's /metrics/summary debug endpoint.
func printMetrics(s *metrics.Snapshot) {
	for _, name := range s.HistogramNames() {
		d := s.Summary(name)
		if d.Count == 0 {
			continue
		}
		fmt.Printf("latency %-24s n=%-8d avg=%-12v p50=%-12v p95=%-12v p99=%-12v max=%v\n",
			name, d.Count,
			time.Duration(d.Avg).Round(time.Nanosecond),
			time.Duration(d.P50), time.Duration(d.P95), time.Duration(d.P99),
			time.Duration(d.Max))
	}
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("counter %-24s %d\n", name, s.Counters[name])
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
	var busy int
	var maxNS int64
	for _, ns := range rep.ShardRedoNS {
		if ns > 0 {
			busy++
		}
		if ns > maxNS {
			maxNS = ns
		}
	}
	fmt.Printf("            redo: %d shards (%d busy), slowest %v\n",
		rep.RedoShards, busy, time.Duration(maxNS))
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
