package core_test

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/tx"
)

// ExampleOpen opens an engine, loads a document and runs one transaction on
// its node manager: jump to an element by ID, read, update, commit.
func ExampleOpen() {
	eng, err := core.Open(pagestore.NewMemBackend(), nil, core.Config{RootName: "bib"})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Load(strings.NewReader(
		`<book id="b1"><title>Contest of XML Lock Protocols</title></book>`)); err != nil {
		log.Fatal(err)
	}

	m := eng.Manager()
	txn := m.Begin(tx.LevelRepeatable)
	book, err := m.JumpToID(txn, "b1")
	if err != nil {
		log.Fatal(err)
	}
	title, err := m.FirstChild(txn, book.ID)
	if err != nil {
		log.Fatal(err)
	}
	text, err := m.FirstChild(txn, title.ID)
	if err != nil {
		log.Fatal(err)
	}
	v, err := m.Value(txn, text.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(v))
	if err := m.SetAttribute(txn, book.ID, "year", []byte("2006")); err != nil {
		log.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		log.Fatal(err)
	}
	// Output: Contest of XML Lock Protocols
}
