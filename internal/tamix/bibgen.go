// Package tamix implements the TaMix framework of Section 4: the scalable
// bib library document, the five transaction types emulating a library
// application, the multi-client coordinator that keeps a fixed number of
// transactions active, and the measurement machinery (committed/aborted
// counts, durations, deadlock analysis) behind the paper's Figures 7-11.
package tamix

import (
	"fmt"
	"math/rand"

	"repro/internal/pagestore"
	"repro/internal/storage"
)

// BibConfig sizes the generated bib document (Section 4.3). The zero value
// is invalid; use DefaultBibConfig (paper scale) or Scaled.
type BibConfig struct {
	// Persons is the number of person elements (paper: 1000).
	Persons int
	// Authors is the number of distinct author names used (paper: 100).
	Authors int
	// Topics is the number of topic elements (paper: 100).
	Topics int
	// BooksPerTopic is the number of books under each topic (paper: 20).
	BooksPerTopic int
	// ChaptersMin/ChaptersMax bound each book's chapter count (paper: 5-10).
	ChaptersMin, ChaptersMax int
	// LendsMin/LendsMax bound each history's lend count (paper: 9-10).
	LendsMin, LendsMax int
	// Seed makes generation deterministic.
	Seed int64
	// Options create the document: its SPLID labeling gap and its buffer
	// pool. Chaos tests shrink BufferFrames so a run does real backend I/O
	// instead of staying buffer-resident. The buffer.* instruments of
	// Metrics record generation traffic too; harnesses that only want
	// measurement-interval numbers snapshot before and after and subtract,
	// or simply accept the warm-up tail.
	storage.Options
}

// DefaultBibConfig is the paper's composition: 1000 persons, 100 authors,
// 2000 books equally distributed across 100 topics, 5-10 chapters per book,
// 9-10 lends per history.
func DefaultBibConfig() BibConfig {
	return BibConfig{
		Persons:       1000,
		Authors:       100,
		Topics:        100,
		BooksPerTopic: 20,
		ChaptersMin:   5,
		ChaptersMax:   10,
		LendsMin:      9,
		LendsMax:      10,
		Seed:          1,
		Options:       storage.Options{Dist: 8},
	}
}

// Scaled shrinks the paper configuration by factor s (0 < s <= 1), keeping
// the 20-books-per-topic ratio, for affordable test and benchmark runs.
func Scaled(s float64) BibConfig {
	c := DefaultBibConfig()
	scale := func(n int) int {
		v := int(float64(n) * s)
		if v < 1 {
			v = 1
		}
		return v
	}
	c.Persons = scale(c.Persons)
	c.Authors = scale(c.Authors)
	c.Topics = scale(c.Topics)
	return c
}

// Catalog records the identifiers the transaction types jump to: TaMix
// picks random books, topics, and persons by their id attributes.
type Catalog struct {
	// BookIDs are the id attribute values of all book elements.
	BookIDs []string
	// TopicIDs are the id attribute values of all topic elements.
	TopicIDs []string
	// PersonIDs are the id attribute values of all person elements.
	PersonIDs []string
	// Books is the total number of books.
	Books int
}

// GenerateBib builds the bib document on the given backend and returns it
// with the catalog of jump targets.
func GenerateBib(backend pagestore.Backend, cfg BibConfig) (*storage.Document, *Catalog, error) {
	doc, err := storage.Create(backend, "bib", cfg.Options)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := &Catalog{}
	b := doc.NewBuilder()

	b.StartElement("persons")
	for i := 0; i < cfg.Persons; i++ {
		pid := fmt.Sprintf("p%d", i)
		cat.PersonIDs = append(cat.PersonIDs, pid)
		b.StartElement("person").Attribute("id", pid).
			StartElement("name").
			Element("first", firstNames[i%len(firstNames)]).
			Element("last", lastNames[(i/len(firstNames))%len(lastNames)]).
			EndElement().
			Element("addr", fmt.Sprintf("%d Library Lane", i)).
			Element("phone", fmt.Sprintf("+49-631-%05d", i)).
			EndElement()
	}
	b.EndElement()

	b.StartElement("topics")
	for t := 0; t < cfg.Topics; t++ {
		tid := fmt.Sprintf("t%d", t)
		cat.TopicIDs = append(cat.TopicIDs, tid)
		b.StartElement("topic").Attribute("id", tid)
		for k := 0; k < cfg.BooksPerTopic; k++ {
			bid := fmt.Sprintf("b%d-%d", t, k)
			cat.BookIDs = append(cat.BookIDs, bid)
			year := 1970 + rng.Intn(36)
			b.StartElement("book").Attribute("id", bid).Attribute("year", fmt.Sprintf("%d", year)).
				Element("title", fmt.Sprintf("%s of %s", titleNouns[rng.Intn(len(titleNouns))], titleTopics[rng.Intn(len(titleTopics))])).
				StartElement("author").
				Element("first", firstNames[rng.Intn(cfg.Authors)%len(firstNames)]).
				Element("last", lastNames[rng.Intn(cfg.Authors)%len(lastNames)]).
				EndElement().
				Element("price", fmt.Sprintf("%d.%02d", 10+rng.Intn(90), rng.Intn(100)))

			b.StartElement("chapters")
			chapters := cfg.ChaptersMin + rng.Intn(cfg.ChaptersMax-cfg.ChaptersMin+1)
			for ch := 0; ch < chapters; ch++ {
				b.StartElement("chapter").
					Element("title", fmt.Sprintf("Chapter %d", ch+1)).
					Element("summary", fmt.Sprintf("Summary of chapter %d in book %s.", ch+1, bid)).
					EndElement()
			}
			b.EndElement()

			b.StartElement("history")
			lends := cfg.LendsMin + rng.Intn(cfg.LendsMax-cfg.LendsMin+1)
			for l := 0; l < lends; l++ {
				b.StartElement("lend").
					Attribute("person", fmt.Sprintf("p%d", rng.Intn(max(cfg.Persons, 1)))).
					Attribute("return", fmt.Sprintf("2005-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))).
					EndElement()
			}
			b.EndElement()

			b.EndElement() // book
		}
		b.EndElement() // topic
	}
	b.EndElement() // topics

	if b.Err() != nil {
		doc.Close()
		return nil, nil, b.Err()
	}
	cat.Books = len(cat.BookIDs)
	return doc, cat, nil
}

var firstNames = []string{
	"Ada", "Edgar", "Grace", "Donald", "Barbara", "Jim", "Theo", "Michael",
	"Konstantin", "Hedy", "Alan", "Leslie", "Margaret", "Tony", "Pat", "Niklaus",
}

var lastNames = []string{
	"Lovelace", "Codd", "Hopper", "Knuth", "Liskov", "Gray", "Haerder",
	"Haustein", "Luttenberger", "Lamarr", "Turing", "Lamport", "Hamilton",
	"Hoare", "Selinger", "Wirth",
}

var titleNouns = []string{
	"Foundations", "Principles", "Art", "Theory", "Practice", "Elements",
	"Fundamentals", "Handbook", "Anatomy", "Design",
}

var titleTopics = []string{
	"Transaction Processing", "XML Databases", "Concurrency Control",
	"Query Optimization", "Storage Systems", "Index Structures",
	"Lock Protocols", "Tree Labeling", "Recovery", "Benchmarking",
}
