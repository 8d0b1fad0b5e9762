// Editor: collaborative XML document processing (the XDP scenario of the
// paper's motivation) — several authors edit disjoint and overlapping
// sections of one document concurrently. The fine-granular protocols let
// edits in different sections proceed in parallel; edits colliding on the
// same section serialize or deadlock-retry, but the document always stays
// well-formed and every committed edit survives.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/pagestore"
)

const articleXML = `
<article id="root-article">
  <section id="s-intro"><title>Introduction</title><para>XML editing.</para></section>
  <section id="s-model"><title>Model</title><para>taDOM trees.</para></section>
  <section id="s-locks"><title>Locks</title><para>Protocols.</para></section>
  <section id="s-eval"><title>Evaluation</title><para>TaMix.</para></section>
</article>`

func main() {
	var (
		protoName = flag.String("protocol", "taDOM3+", "lock protocol")
		authors   = flag.Int("authors", 6, "concurrent authors")
		edits     = flag.Int("edits", 40, "edits per author")
	)
	flag.Parse()

	eng, err := core.Open(pagestore.NewMemBackend(), nil, core.Config{RootName: "doc", Protocol: *protoName})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Load(strings.NewReader(articleXML)); err != nil {
		log.Fatal(err)
	}

	sections := []string{"s-intro", "s-model", "s-locks", "s-eval"}
	var wg sync.WaitGroup
	for a := 0; a < *authors; a++ {
		wg.Add(1)
		go func(author int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(author)))
			for e := 0; e < *edits; e++ {
				section := sections[rng.Intn(len(sections))]
				err := eng.Exec(core.Repeatable, func(s *core.Session) error {
					sec, err := s.JumpToID(section)
					if err != nil {
						return err
					}
					switch rng.Intn(3) {
					case 0: // append a paragraph
						para, err := s.AppendElement(sec.ID, "para")
						if err != nil {
							return err
						}
						_, err = s.AppendText(para.ID,
							[]byte(fmt.Sprintf("Paragraph by author %d (edit %d).", author, e)))
						return err
					case 1: // revise the title
						title, err := s.FirstChild(sec.ID)
						if err != nil || title.ID.IsNull() {
							return err
						}
						txt, err := s.FirstChild(title.ID)
						if err != nil || txt.ID.IsNull() {
							return err
						}
						return s.SetValue(txt.ID,
							[]byte(fmt.Sprintf("%s (rev. %d.%d)", section, author, e)))
					default: // trim the oldest extra paragraph
						kids, err := s.Children(sec.ID)
						if err != nil {
							return err
						}
						if len(kids) <= 2 {
							return nil // keep title + one paragraph
						}
						return s.DeleteSubtree(kids[1].ID)
					}
				})
				if err != nil {
					log.Printf("author %d: edit lost: %v", author, err)
				}
			}
		}(a)
	}
	wg.Wait()

	st := eng.Metrics()
	fmt.Printf("edited by %d authors: %d committed, %d deadlock aborts absorbed by retry\n",
		*authors, st.CounterValue("tx.committed"), st.CounterValue("tx.aborted"))

	// Verify the document is intact: every section still has a title.
	err = eng.Exec(core.Repeatable, func(s *core.Session) error {
		for _, id := range sections {
			sec, err := s.JumpToID(id)
			if err != nil {
				return err
			}
			kids, err := s.Children(sec.ID)
			if err != nil {
				return err
			}
			if len(kids) == 0 || s.Name(kids[0]) != "title" {
				return fmt.Errorf("section %s lost its title", id)
			}
			fmt.Printf("section %-8s: %d children\n", id, len(kids))
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
