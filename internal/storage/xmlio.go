package storage

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/btree"
	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// Builder bulk-loads a document in document order, assigning gap-spaced
// SPLIDs level by level (the paper's "initial document storage only assigns
// odd division values"). It is not safe for concurrent use and bypasses
// locking — use it only to construct benchmark fixtures before transactions
// start. Each call is one logged system operation, as through TxDoc, but a
// node is written once, where the load last wrote (put), and an attribute
// without reading the element's others: the Builder keeps them.
type Builder struct {
	d     *Document
	stack []builderFrame
	attrs []builderAttr // the attributes of the open elements, outermost first
	err   error
	// The leaves the last writes landed on (btree.Tree.Append): one in the
	// document tree, one per element name in the element index, whose keys
	// for one name ascend as the document's do.
	doc  btree.Hint
	elem []btree.Hint
}

type builderFrame struct {
	id       splid.ID
	children int
	attrs    int // where the element's attributes begin in Builder.attrs
}

// builderAttr is an attribute the Builder wrote on an open element.
type builderAttr struct {
	name xmlmodel.Sur
	id   splid.ID
}

// NewBuilder starts building below the document root.
func (d *Document) NewBuilder() *Builder {
	return &Builder{d: d, stack: []builderFrame{{id: splid.Root()}}}
}

func (b *Builder) top() *builderFrame { return &b.stack[len(b.stack)-1] }

// put stores a node the load creates. In document order a node lands on the
// leaf the last one did, or past it on the rightmost leaf, and finds its
// parent there unless a leaf boundary falls between them: then Append writes
// it without a descent, and its element-index entry likewise. Otherwise
// insertRaw probes and inserts it, as for a transaction, and reports an
// existing node or a missing parent.
func (b *Builder) put(n xmlmodel.Node) error {
	d := b.d
	var kb [btree.MaxKeyLen]byte
	key := n.ID.AppendEncode(kb[:0])
	ok, err := d.doc.Append(&b.doc, key, xmlmodel.EncodeRecord(n), key[:n.ID.Parent().EncodedLen()])
	if err != nil {
		return err
	}
	if !ok {
		return d.insertRaw(n)
	}
	if n.Kind == xmlmodel.KindElement {
		if int(n.Name) >= len(b.elem) {
			b.elem = append(b.elem, make([]btree.Hint, int(n.Name)+1-len(b.elem))...)
		}
		var eb [2 + btree.MaxKeyLen]byte
		ekey := appendElemKey(eb[:0], n.Name, n.ID)
		if ok, err = d.elem.Append(&b.elem[n.Name], ekey, nil, nil); err == nil && !ok {
			err = d.elem.Insert(ekey, nil)
		}
		if err != nil {
			return err
		}
	}
	d.mu.Lock()
	d.size++
	d.mu.Unlock()
	return nil
}

// nextChildID allocates the label for the next child of the current frame.
func (b *Builder) nextChildID() splid.ID {
	f := b.top()
	id := b.d.alloc.NthChild(f.id, f.children)
	f.children++
	return id
}

// StartElement opens a child element; calls nest.
func (b *Builder) StartElement(name string) *Builder {
	if b.err != nil {
		return b
	}
	id := b.nextChildID()
	b.err = b.d.ForTx(SystemTxn).logOp(func() ([]byte, error) {
		_, undo, err := b.d.insertElementLocked(b.put, id, name)
		return undo, err
	})
	if b.err == nil {
		b.stack = append(b.stack, builderFrame{id: id, attrs: len(b.attrs)})
	}
	return b
}

// EndElement closes the innermost open element.
func (b *Builder) EndElement() *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 1 {
		b.err = fmt.Errorf("storage: EndElement without StartElement")
		return b
	}
	b.attrs = b.attrs[:b.top().attrs]
	b.stack = b.stack[:len(b.stack)-1]
	return b
}

// Attribute sets an attribute on the innermost open element.
func (b *Builder) Attribute(name, value string) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 1 {
		b.err = fmt.Errorf("storage: Attribute outside an element")
		return b
	}
	f := b.top()
	b.err = b.d.ForTx(SystemTxn).logOp(func() ([]byte, error) {
		sur, err := b.d.vocab.Intern(name)
		if err != nil {
			return nil, err
		}
		var existing, last splid.ID
		for _, a := range b.attrs[f.attrs:] {
			if last = a.id; a.name == sur {
				existing = a.id
			}
		}
		n, undo, err := b.d.addAttributeLocked(b.put, f.id, !last.IsNull(), existing, last, sur, name, []byte(value))
		if err == nil && existing.IsNull() {
			b.attrs = append(b.attrs, builderAttr{name: sur, id: n.ID})
		}
		return undo, err
	})
	return b
}

// Text appends a text node to the innermost open element.
func (b *Builder) Text(value string) *Builder {
	if b.err != nil {
		return b
	}
	id := b.nextChildID()
	b.err = b.d.ForTx(SystemTxn).logOp(func() ([]byte, error) {
		_, undo, err := b.d.insertTextLocked(b.put, id, []byte(value))
		return undo, err
	})
	return b
}

// Element writes a leaf element with a single text child — the common
// `<title>foo</title>` shape.
func (b *Builder) Element(name, text string) *Builder {
	return b.StartElement(name).Text(text).EndElement()
}

// Err returns the first error encountered while building.
func (b *Builder) Err() error { return b.err }

// ImportXML loads an XML byte stream below the document root. Whitespace-
// only character data is dropped; comments and processing instructions are
// ignored.
func (d *Document) ImportXML(r io.Reader) error {
	dec := xml.NewDecoder(r)
	b := d.NewBuilder()
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("storage: ImportXML: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			b.StartElement(t.Name.Local)
			for _, a := range t.Attr {
				b.Attribute(a.Name.Local, a.Value)
			}
			depth++
		case xml.EndElement:
			b.EndElement()
			depth--
		case xml.CharData:
			if s := strings.TrimSpace(string(t)); s != "" {
				b.Text(s)
			}
		}
	}
	if depth != 0 {
		return fmt.Errorf("storage: ImportXML: unbalanced document (depth %d)", depth)
	}
	return b.Err()
}

// ExportXML serializes the subtree rooted at id (the whole document when id
// is the root) as indented XML.
func (d *Document) ExportXML(w io.Writer, id splid.ID) error {
	n, err := d.GetNode(id)
	if err != nil {
		return err
	}
	return d.exportNode(w, n, 0)
}

func (d *Document) exportNode(w io.Writer, n xmlmodel.Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	switch n.Kind {
	case xmlmodel.KindElement:
		name := d.vocab.Name(n.Name)
		var attrs strings.Builder
		err := d.Attributes(n.ID, func(a xmlmodel.Node) bool {
			v, verr := d.Value(a.ID)
			if verr != nil {
				return true
			}
			fmt.Fprintf(&attrs, " %s=%q", d.vocab.Name(a.Name), string(v))
			return true
		})
		if err != nil {
			return err
		}
		var children []xmlmodel.Node
		if err := d.ScanChildren(n.ID, func(c xmlmodel.Node) bool {
			children = append(children, c)
			return true
		}); err != nil {
			return err
		}
		if len(children) == 0 {
			_, err := fmt.Fprintf(w, "%s<%s%s/>\n", indent, name, attrs.String())
			return err
		}
		// Single text child renders inline.
		if len(children) == 1 && children[0].Kind == xmlmodel.KindText {
			v, err := d.Value(children[0].ID)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s<%s%s>%s</%s>\n", indent, name, attrs.String(), escape(string(v)), name)
			return err
		}
		if _, err := fmt.Fprintf(w, "%s<%s%s>\n", indent, name, attrs.String()); err != nil {
			return err
		}
		for _, c := range children {
			if err := d.exportNode(w, c, depth+1); err != nil {
				return err
			}
		}
		_, err = fmt.Fprintf(w, "%s</%s>\n", indent, name)
		return err
	case xmlmodel.KindText:
		v, err := d.Value(n.ID)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s%s\n", indent, escape(string(v)))
		return err
	default:
		return fmt.Errorf("storage: cannot export %v node %v", n.Kind, n.ID)
	}
}

var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

func escape(s string) string { return escaper.Replace(s) }
