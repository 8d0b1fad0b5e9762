package core_test

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/pagestore"
)

// ExampleEngine_Exec shows the basic transactional session: jump to an
// element by ID, read, update, and let Exec handle commit and deadlock
// retry.
func ExampleEngine_Exec() {
	eng, err := core.Open(pagestore.NewMemBackend(), nil, core.Config{RootName: "bib"})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Load(strings.NewReader(
		`<book id="b1"><title>Contest of XML Lock Protocols</title></book>`)); err != nil {
		log.Fatal(err)
	}

	err = eng.Exec(core.Repeatable, func(s *core.Session) error {
		book, err := s.JumpToID("b1")
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
		fmt.Println(string(v))
		return s.SetAttribute(book.ID, "year", []byte("2006"))
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: Contest of XML Lock Protocols
}

// ExampleProtocols lists the paper's 11 contestants plus the MVCC snapshot
// contestant this repo adds.
func ExampleProtocols() {
	for _, name := range core.Protocols() {
		fmt.Println(name)
	}
	// Output:
	// Node2PL
	// NO2PL
	// OO2PL
	// Node2PLa
	// IRX
	// IRIX
	// URIX
	// taDOM2
	// taDOM2+
	// taDOM3
	// taDOM3+
	// snapshot
}
