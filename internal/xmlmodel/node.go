// Package xmlmodel defines the taDOM document model of XTC (Section 3.1 of
// "Contest of XML Lock Protocols"): the node kinds stored on disk, the
// vocabulary that replaces element and attribute names with small integer
// surrogates, and the byte-level record format used by the document store.
//
// The taDOM model extends plain DOM in two lock-manager-friendly ways:
// attributes hang off a separate virtual attribute-root node instead of
// their element, and the character data of text and attribute nodes lives in
// a dedicated string node. Both virtual node kinds let transactions lock
// structure and content independently; user-visible DOM semantics are
// unchanged.
package xmlmodel

import (
	"encoding/binary"
	"fmt"

	"repro/internal/splid"
)

// Kind enumerates the taDOM node kinds.
type Kind uint8

const (
	// KindElement is a regular XML element node.
	KindElement Kind = iota + 1
	// KindAttributeRoot is the virtual node connecting an element to its
	// attributes; its SPLID is element.1.
	KindAttributeRoot
	// KindAttribute is an attribute node (name only; its value is a string
	// node child).
	KindAttribute
	// KindText is a text node (its character data is a string node child).
	KindText
	// KindString is a string node holding the character data of a text or
	// attribute node; its SPLID is parent.1.
	KindString
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindAttributeRoot:
		return "attrRoot"
	case KindAttribute:
		return "attribute"
	case KindText:
		return "text"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined node kind.
func (k Kind) Valid() bool { return k >= KindElement && k <= KindString }

// NoName is the name surrogate of node kinds that carry no name
// (attribute roots, text nodes, string nodes).
const NoName Sur = 0

// Node is one taDOM tree node. It is a value type: the document store
// returns copies, so callers may retain Nodes across operations without
// aliasing store memory (Value is the exception and must be copied before
// mutation).
type Node struct {
	// ID is the node's SPLID.
	ID splid.ID
	// Kind is the node kind.
	Kind Kind
	// Name is the vocabulary surrogate of the element or attribute name;
	// NoName for unnamed kinds.
	Name Sur
	// Value is the character data of a string node; nil for other kinds.
	Value []byte
}

// HasName reports whether the node kind carries a name.
func (n Node) HasName() bool { return n.Kind == KindElement || n.Kind == KindAttribute }

// record format: kind(1) | name-surrogate(2, big-endian) | value bytes.

// recordHeaderLen is the fixed prefix of an encoded node record.
const recordHeaderLen = 3

// EncodeRecord serializes the non-key part of a node (everything except the
// SPLID, which is the B-tree key) into the document container format.
func EncodeRecord(n Node) []byte {
	buf := make([]byte, recordHeaderLen+len(n.Value))
	buf[0] = byte(n.Kind)
	binary.BigEndian.PutUint16(buf[1:3], uint16(n.Name))
	copy(buf[recordHeaderLen:], n.Value)
	return buf
}

// RecordKind returns the node kind of an encoded record without decoding the
// rest (0, no valid kind, for an empty one).
func RecordKind(b []byte) Kind {
	if len(b) == 0 {
		return 0
	}
	return Kind(b[0])
}

// DecodeRecord parses a node record produced by EncodeRecord. The SPLID key
// is supplied by the caller. The returned Node's Value aliases b.
func DecodeRecord(id splid.ID, b []byte) (Node, error) {
	if len(b) < recordHeaderLen {
		return Node{}, fmt.Errorf("xmlmodel: record too short (%d bytes)", len(b))
	}
	k := Kind(b[0])
	if !k.Valid() {
		return Node{}, fmt.Errorf("xmlmodel: invalid node kind %d", b[0])
	}
	n := Node{
		ID:   id,
		Kind: k,
		Name: Sur(binary.BigEndian.Uint16(b[1:3])),
	}
	if len(b) > recordHeaderLen {
		n.Value = b[recordHeaderLen:]
	}
	return n, nil
}
