// Quickstart: open an engine, load XML, and run concurrent transactions
// against it — the minimal tour of the public API.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/pagestore"
)

const libraryXML = `
<topics>
  <topic id="databases">
    <book id="gray93" year="1993">
      <title>Transaction Processing: Concepts and Techniques</title>
      <history/>
    </book>
    <book id="haustein06" year="2006">
      <title>Contest of XML Lock Protocols</title>
      <history/>
    </book>
  </topic>
</topics>`

func main() {
	// An in-memory engine under the contest winner, taDOM3+.
	eng, err := core.Open(pagestore.NewMemBackend(), nil, core.Config{RootName: "bib", Protocol: "taDOM3+"})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Load(strings.NewReader(libraryXML)); err != nil {
		log.Fatal(err)
	}

	// A read-write transaction: jump to a book by its id attribute, read
	// it, and lend it out. Exec commits on nil, aborts on error, and
	// retries automatically when chosen as a deadlock victim.
	err = eng.Exec(core.Repeatable, func(s *core.Session) error {
		book, err := s.JumpToID("haustein06")
		if err != nil {
			return err
		}
		title, err := s.FirstChild(book.ID)
		if err != nil {
			return err
		}
		text, err := s.FirstChild(title.ID)
		if err != nil {
			return err
		}
		v, err := s.Value(text.ID)
		if err != nil {
			return err
		}
		fmt.Printf("borrowing %q\n", v)

		history, err := s.LastChild(book.ID)
		if err != nil {
			return err
		}
		lend, err := s.AppendElement(history.ID, "lend")
		if err != nil {
			return err
		}
		return s.SetAttribute(lend.ID, "person", []byte("p-ada"))
	})
	if err != nil {
		log.Fatal(err)
	}

	// A read-only transaction sees the committed state.
	err = eng.Exec(core.Repeatable, func(s *core.Session) error {
		book, err := s.JumpToID("haustein06")
		if err != nil {
			return err
		}
		frag, err := s.ReadFragment(book.ID)
		if err != nil {
			return err
		}
		fmt.Printf("the book's subtree now holds %d nodes\n", len(frag))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	st := eng.Metrics()
	fmt.Printf("engine: %d committed, %d aborted, %d lock requests\n",
		st.CounterValue("tx.committed"), st.CounterValue("tx.aborted"), st.CounterValue("lock.requests"))

	fmt.Println("\ndocument after the session:")
	if err := eng.ExportXML(os.Stdout, eng.Root()); err != nil {
		log.Fatal(err)
	}
}
