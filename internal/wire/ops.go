package wire

import (
	"fmt"

	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// Node-operation opcodes (session must hold an active transaction). What
// each carries is declared in the operation table below.
const (
	OpGetNode                 Op = 16
	OpJumpToID                Op = 17
	OpFirstChild              Op = 18
	OpLastChild               Op = 19
	OpNextSibling             Op = 20
	OpPrevSibling             Op = 21
	OpParent                  Op = 22
	OpGetChildren             Op = 23
	OpGetAttributes           Op = 24
	OpValue                   Op = 25
	OpAttributeValue          Op = 26
	OpReadFragment            Op = 27
	OpReadFragmentForUpdate   Op = 28
	OpUpdateLastChildFragment Op = 29
	OpSetValue                Op = 30
	OpRename                  Op = 31
	OpAppendElement           Op = 32
	OpAppendText              Op = 33
	OpInsertElementBefore     Op = 34
	OpSetAttribute            Op = 35
	OpDeleteSubtree           Op = 36
)

// ArgShape names the operand slots a node operation's request body carries.
// Slots are always encoded in the fixed order id, id2, name, bytes, flag.
type ArgShape uint8

const (
	ArgID    ArgShape = 1 << iota // a SPLID
	ArgID2                        // a second SPLID
	ArgName                       // a string (element/attribute name, id value)
	ArgBytes                      // a byte string (character data)
	ArgFlag                       // one boolean byte
)

// ResultShape is the layout of a node operation's StatusOK body.
type ResultShape uint8

const (
	ResNone      ResultShape = iota // empty
	ResNode                         // one node record
	ResNodes                        // a node list
	ResBytes                        // a byte string
	ResNodeNodes                    // a node record, then a node list
)

// Args holds the operands of one node operation; an op reads only the
// slots its ArgShape names.
type Args struct {
	ID, ID2 splid.ID
	Name    string
	Bytes   []byte
	Flag    bool
}

// Result holds what one node operation returns; an op fills only the
// fields its ResultShape names.
type Result struct {
	Node  xmlmodel.Node
	Nodes []xmlmodel.Node
	Bytes []byte
}

// OpSpec is one row of the operation table.
type OpSpec struct {
	// Name labels the op in metrics and error text.
	Name string
	// Args and Result drive the codec; both are zero for control ops, whose
	// bodies are hand-written.
	Args   ArgShape
	Result ResultShape
	// Write marks ops that update the document or declare the intent to;
	// snapshot transactions refuse them (node.ErrReadOnly).
	Write bool
}

// ops is the operation table: every opcode the protocol knows, declared
// once. The server's dispatch, the codec, the client's typed stubs, the
// TaMix engines and the node manager's read-only rule are all derived from
// these rows; node.Manager.Do runs the implementation internal/node binds
// to each node-op row (control ops carry a name only — their bodies are
// hand-written and the server handles them itself).
var ops = [...]OpSpec{
	OpOpenSession:   {Name: "OpenSession"},
	OpCloseSession:  {Name: "CloseSession"},
	OpBegin:         {Name: "Begin"},
	OpCommit:        {Name: "Commit"},
	OpAbort:         {Name: "Abort"},
	OpCatalog:       {Name: "Catalog"},
	OpLookupName:    {Name: "LookupName"},
	OpStats:         {Name: "Stats"},
	OpAudit:         {Name: "Audit"},
	OpPing:          {Name: "Ping"},
	OpHeartbeat:     {Name: "Heartbeat"},
	OpResumeSession: {Name: "ResumeSession"},

	OpGetNode:                 {"GetNode", ArgID, ResNode, false},
	OpJumpToID:                {"JumpToID", ArgName, ResNode, false},
	OpFirstChild:              {"FirstChild", ArgID, ResNode, false},
	OpLastChild:               {"LastChild", ArgID, ResNode, false},
	OpNextSibling:             {"NextSibling", ArgID, ResNode, false},
	OpPrevSibling:             {"PrevSibling", ArgID, ResNode, false},
	OpParent:                  {"Parent", ArgID, ResNode, false},
	OpGetChildren:             {"GetChildren", ArgID, ResNodes, false},
	OpGetAttributes:           {"GetAttributes", ArgID, ResNodes, false},
	OpValue:                   {"Value", ArgID, ResBytes, false},
	OpAttributeValue:          {"AttributeValue", ArgID | ArgName, ResBytes, false},
	OpReadFragment:            {"ReadFragment", ArgID | ArgFlag, ResNodes, false},
	OpReadFragmentForUpdate:   {"ReadFragmentForUpdate", ArgID | ArgFlag, ResNodes, true},
	OpUpdateLastChildFragment: {"UpdateLastChildFragment", ArgID, ResNodeNodes, true},
	OpSetValue:                {"SetValue", ArgID | ArgBytes, ResNone, true},
	OpRename:                  {"Rename", ArgID | ArgName, ResNone, true},
	OpAppendElement:           {"AppendElement", ArgID | ArgName, ResNode, true},
	OpAppendText:              {"AppendText", ArgID | ArgBytes, ResNode, true},
	OpInsertElementBefore:     {"InsertElementBefore", ArgID | ArgID2 | ArgName, ResNode, true},
	OpSetAttribute:            {"SetAttribute", ArgID | ArgName | ArgBytes, ResNone, true},
	OpDeleteSubtree:           {"DeleteSubtree", ArgID, ResNone, true},
}

// NumOps bounds the opcode space the table covers (for arrays indexed by
// Op and for tests that walk every row).
const NumOps = len(ops)

// Spec returns the table row of a known opcode.
func (o Op) Spec() (OpSpec, bool) {
	if int(o) >= len(ops) || ops[o].Name == "" {
		return OpSpec{}, false
	}
	return ops[o], true
}

// String implements fmt.Stringer (metrics labels and error text).
func (o Op) String() string {
	if spec, ok := o.Spec(); ok {
		return spec.Name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Ops is the typed spelling of the node operations over any executor of
// the table: each method names one op's operands and picks its result out of
// the Result, so the vocabulary is written once. T is whatever the executor
// takes to identify the transaction (*tx.Txn for node.Manager, which embeds
// an Ops over its own Do; the TaMix engines' handle for their transaction
// bodies).
type Ops[T any] struct {
	Do func(t T, op Op, a Args) (Result, error)
}

func (o Ops[T]) node(t T, op Op, a Args) (xmlmodel.Node, error) {
	r, err := o.Do(t, op, a)
	return r.Node, err
}

func (o Ops[T]) nodes(t T, op Op, a Args) ([]xmlmodel.Node, error) {
	r, err := o.Do(t, op, a)
	return r.Nodes, err
}

func (o Ops[T]) bytes(t T, op Op, a Args) ([]byte, error) {
	r, err := o.Do(t, op, a)
	return r.Bytes, err
}

func (o Ops[T]) update(t T, op Op, a Args) error {
	_, err := o.Do(t, op, a)
	return err
}

// GetNode reads one node by SPLID (navigational access).
func (o Ops[T]) GetNode(t T, id splid.ID) (xmlmodel.Node, error) {
	return o.node(t, OpGetNode, Args{ID: id})
}

// JumpToID resolves an ID-attribute value to its element (getElementById).
func (o Ops[T]) JumpToID(t T, value string) (xmlmodel.Node, error) {
	return o.node(t, OpJumpToID, Args{Name: value})
}

// FirstChild returns the first regular child (null-ID node when none).
func (o Ops[T]) FirstChild(t T, id splid.ID) (xmlmodel.Node, error) {
	return o.node(t, OpFirstChild, Args{ID: id})
}

// LastChild returns the last regular child.
func (o Ops[T]) LastChild(t T, id splid.ID) (xmlmodel.Node, error) {
	return o.node(t, OpLastChild, Args{ID: id})
}

// NextSibling returns the following sibling.
func (o Ops[T]) NextSibling(t T, id splid.ID) (xmlmodel.Node, error) {
	return o.node(t, OpNextSibling, Args{ID: id})
}

// PrevSibling returns the preceding sibling.
func (o Ops[T]) PrevSibling(t T, id splid.ID) (xmlmodel.Node, error) {
	return o.node(t, OpPrevSibling, Args{ID: id})
}

// Parent returns the parent node (null-ID node for the root).
func (o Ops[T]) Parent(t T, id splid.ID) (xmlmodel.Node, error) {
	return o.node(t, OpParent, Args{ID: id})
}

// GetChildren returns all regular children (getChildNodes).
func (o Ops[T]) GetChildren(t T, id splid.ID) ([]xmlmodel.Node, error) {
	return o.nodes(t, OpGetChildren, Args{ID: id})
}

// GetAttributes returns the attribute nodes of an element (getAttributes).
func (o Ops[T]) GetAttributes(t T, el splid.ID) ([]xmlmodel.Node, error) {
	return o.nodes(t, OpGetAttributes, Args{ID: el})
}

// Value reads the character data of a text or attribute node.
func (o Ops[T]) Value(t T, id splid.ID) ([]byte, error) {
	return o.bytes(t, OpValue, Args{ID: id})
}

// AttributeValue reads one attribute of an element by name.
func (o Ops[T]) AttributeValue(t T, el splid.ID, name string) ([]byte, error) {
	return o.bytes(t, OpAttributeValue, Args{ID: el, Name: name})
}

// ReadFragment reads the whole subtree under id in document order (the
// getFragment operation of Section 5.2), returning all regular nodes. jump
// marks index-based access to the fragment root.
func (o Ops[T]) ReadFragment(t T, id splid.ID, jump bool) ([]xmlmodel.Node, error) {
	return o.nodes(t, OpReadFragment, Args{ID: id, Flag: jump})
}

// ReadFragmentForUpdate reads the subtree under id like ReadFragment but
// declares update intent.
func (o Ops[T]) ReadFragmentForUpdate(t T, id splid.ID, jump bool) ([]xmlmodel.Node, error) {
	return o.nodes(t, OpReadFragmentForUpdate, Args{ID: id, Flag: jump})
}

// UpdateLastChildFragment navigates to the last child of id and reads its
// whole subtree with declared update intent in one step, returning the
// child and its fragment.
func (o Ops[T]) UpdateLastChildFragment(t T, id splid.ID) (xmlmodel.Node, []xmlmodel.Node, error) {
	r, err := o.Do(t, OpUpdateLastChildFragment, Args{ID: id})
	return r.Node, r.Nodes, err
}

// SetValue overwrites the character data of a text or attribute node.
func (o Ops[T]) SetValue(t T, id splid.ID, value []byte) error {
	return o.update(t, OpSetValue, Args{ID: id, Bytes: value})
}

// Rename changes an element's name (DOM level 3 renameNode).
func (o Ops[T]) Rename(t T, id splid.ID, newName string) error {
	return o.update(t, OpRename, Args{ID: id, Name: newName})
}

// AppendElement inserts a new element as the last child of parent and
// returns it.
func (o Ops[T]) AppendElement(t T, parent splid.ID, name string) (xmlmodel.Node, error) {
	return o.node(t, OpAppendElement, Args{ID: parent, Name: name})
}

// AppendText inserts a new text node as the last child of parent.
func (o Ops[T]) AppendText(t T, parent splid.ID, value []byte) (xmlmodel.Node, error) {
	return o.node(t, OpAppendText, Args{ID: parent, Bytes: value})
}

// InsertElementBefore inserts a new element in front of sibling `before`
// under parent.
func (o Ops[T]) InsertElementBefore(t T, parent, before splid.ID, name string) (xmlmodel.Node, error) {
	return o.node(t, OpInsertElementBefore, Args{ID: parent, ID2: before, Name: name})
}

// SetAttribute creates or overwrites an attribute on an element.
func (o Ops[T]) SetAttribute(t T, el splid.ID, name string, value []byte) error {
	return o.update(t, OpSetAttribute, Args{ID: el, Name: name, Bytes: value})
}

// DeleteSubtree removes the node and its whole subtree.
func (o Ops[T]) DeleteSubtree(t T, id splid.ID) error {
	return o.update(t, OpDeleteSubtree, Args{ID: id})
}
