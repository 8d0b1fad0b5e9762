// Library: the paper's motivating scenario as an application — many
// concurrent patrons lending and returning books while readers browse the
// catalog, all against one XML document. Run it with different -protocol
// values to feel the contest: the taDOM* protocols sustain the most
// parallelism, the *-2PL protocols abort the most.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/tamix"
)

func main() {
	var (
		protoName = flag.String("protocol", "taDOM3+", "lock protocol (see the paper's 11)")
		patrons   = flag.Int("patrons", 8, "concurrent lender goroutines")
		browsers  = flag.Int("browsers", 8, "concurrent reader goroutines")
		seconds   = flag.Int("seconds", 3, "run duration")
	)
	flag.Parse()

	// Build a small bib library with the TaMix generator, then wire it into
	// an engine under the chosen protocol.
	doc, cat, err := tamix.GenerateBib(pagestore.NewMemBackend(), tamix.Scaled(0.02))
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.Wrap(doc, nil, core.Config{Protocol: *protoName})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	fmt.Printf("library: %d books, protocol %s, %d patrons + %d browsers for %ds\n",
		cat.Books, eng.ProtocolName(), *patrons, *browsers, *seconds)

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var wg sync.WaitGroup
	var mu sync.Mutex
	lends, returns, browses := 0, 0, 0

	// Patrons lend and return books.
	for i := 0; i < *patrons; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				bookID := cat.BookIDs[rng.Intn(len(cat.BookIDs))]
				person := cat.PersonIDs[rng.Intn(len(cat.PersonIDs))]
				lend := rng.Intn(2) == 0
				err := eng.Exec(core.Repeatable, func(s *core.Session) error {
					book, err := s.JumpToID(bookID)
					if err != nil {
						return err
					}
					history, err := s.LastChild(book.ID)
					if err != nil || history.ID.IsNull() {
						return err
					}
					if lend {
						entry, err := s.AppendElement(history.ID, "lend")
						if err != nil {
							return err
						}
						return s.SetAttribute(entry.ID, "person", []byte(person))
					}
					entries, err := s.Children(history.ID)
					if err != nil || len(entries) <= 1 {
						return err
					}
					return s.DeleteSubtree(entries[0].ID)
				})
				if err != nil {
					log.Printf("patron: %v", err)
					continue
				}
				mu.Lock()
				if lend {
					lends++
				} else {
					returns++
				}
				mu.Unlock()
			}
		}(int64(i))
	}

	// Browsers read book fragments.
	for i := 0; i < *browsers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + seed))
			for time.Now().Before(deadline) {
				bookID := cat.BookIDs[rng.Intn(len(cat.BookIDs))]
				err := eng.Exec(core.Repeatable, func(s *core.Session) error {
					book, err := s.JumpToID(bookID)
					if err != nil {
						return err
					}
					_, err = s.ReadFragment(book.ID)
					return err
				})
				if err != nil {
					log.Printf("browser: %v", err)
					continue
				}
				mu.Lock()
				browses++
				mu.Unlock()
			}
		}(int64(i))
	}

	wg.Wait()
	st := eng.Metrics()
	fmt.Printf("done: %d lends, %d returns, %d browses\n", lends, returns, browses)
	fmt.Printf("engine: %d committed, %d aborted (%d deadlocks, %d by conversion), %d lock requests\n",
		st.CounterValue("tx.committed"), st.CounterValue("tx.aborted"), st.CounterValue("lock.deadlocks"),
		st.CounterValue("lock.conversion_deadlocks"), st.CounterValue("lock.requests"))
}
