// Contest: a miniature version of the paper's experiment through the public
// API — the same concurrent workload is replayed under every lock protocol
// and the outcomes are ranked. For the full TaMix reproduction with the
// paper's CLUSTER1/CLUSTER2 workloads, use cmd/tamix (-fig contest for the ranking).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
)

func buildXML(topics, booksPerTopic int) string {
	var b strings.Builder
	b.WriteString("<topics>")
	for t := 0; t < topics; t++ {
		fmt.Fprintf(&b, `<topic id="t%d">`, t)
		for k := 0; k < booksPerTopic; k++ {
			fmt.Fprintf(&b, `<book id="b%d-%d"><title>Book %d.%d</title><history/></book>`, t, k, t, k)
		}
		b.WriteString("</topic>")
	}
	b.WriteString("</topics>")
	return b.String()
}

func main() {
	var (
		workers = flag.Int("workers", 12, "concurrent transactions")
		millis  = flag.Int("millis", 400, "run duration per protocol")
	)
	flag.Parse()

	xmlDoc := buildXML(4, 5)
	type outcome struct {
		proto     string
		committed uint64
		aborted   uint64
	}
	var results []outcome

	for _, proto := range core.Protocols() {
		eng, err := core.Open(pagestore.NewMemBackend(), nil, core.Config{
			RootName:    "bib",
			Protocol:    proto,
			LockTimeout: 2 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.Load(strings.NewReader(xmlDoc)); err != nil {
			log.Fatal(err)
		}

		deadline := time.Now().Add(time.Duration(*millis) * time.Millisecond)
		var wg sync.WaitGroup
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for time.Now().Before(deadline) {
					bookID := fmt.Sprintf("b%d-%d", rng.Intn(4), rng.Intn(5))
					err := eng.Exec(core.Repeatable, func(s *core.Session) error {
						book, err := s.JumpToID(bookID)
						if err != nil {
							return err
						}
						if rng.Intn(3) == 0 { // writer: lend the book
							history, err := s.LastChild(book.ID)
							if err != nil || history.ID.IsNull() {
								return err
							}
							lend, err := s.AppendElement(history.ID, "lend")
							if err != nil {
								return err
							}
							return s.SetAttribute(lend.ID, "person", []byte("p1"))
						}
						_, err = s.ReadFragment(book.ID) // reader
						return err
					})
					if err != nil {
						return // retries exhausted; give the slot up
					}
				}
			}(int64(w))
		}
		wg.Wait()
		st := eng.Metrics()
		results = append(results, outcome{proto, st.CounterValue("tx.committed"), st.CounterValue("tx.aborted")})
		eng.Close()
	}

	sort.SliceStable(results, func(i, j int) bool { return results[i].committed > results[j].committed })
	fmt.Printf("%-4s %-10s %10s %10s\n", "rank", "protocol", "committed", "aborted")
	for i, r := range results {
		fmt.Printf("%-4d %-10s %10d %10d\n", i+1, r.proto, r.committed, r.aborted)
	}
	fmt.Println("\n(the paper's verdict: the taDOM* group wins; see cmd/tamix for the full figures)")
}
