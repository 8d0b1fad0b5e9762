package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/splid"
	"repro/internal/xmlmodel"
)

// Verify checks the document's physical invariants: tree connectivity, the
// taDOM kind rules, vocabulary consistency, and full agreement between the
// document container and both secondary indexes. Tests run it after
// concurrent workloads to prove that no interleaving corrupted the store.
func (d *Document) Verify() error {
	type info struct {
		kind xmlmodel.Kind
		name xmlmodel.Sur
	}
	nodes := make(map[splid.ID]info)
	elements := make(map[splid.ID]xmlmodel.Sur)
	idAttrs := make(map[string]splid.ID) // id value -> element
	idSur, _ := d.vocab.Lookup(IDAttrName)

	count := 0
	err := d.ScanDocument(func(n xmlmodel.Node) bool {
		count++
		nodes[n.ID] = info{n.Kind, n.Name}
		if n.Kind == xmlmodel.KindElement {
			elements[n.ID] = n.Name
		}
		return true
	})
	if err != nil {
		return err
	}
	if count != d.Size() {
		return fmt.Errorf("storage: size counter %d != stored nodes %d", d.Size(), count)
	}

	// Per-node structural rules.
	for id, inf := range nodes {
		if inf.kind == xmlmodel.KindElement || inf.kind == xmlmodel.KindAttribute {
			if inf.name == xmlmodel.NoName || d.vocab.Name(inf.name) == "" {
				return fmt.Errorf("storage: %s %v has no vocabulary name", inf.kind, id)
			}
		}
		parent := id.Parent()
		if parent.IsNull() {
			if !id.IsRoot() {
				return fmt.Errorf("storage: non-root node %v has no parent", id)
			}
			if inf.kind != xmlmodel.KindElement {
				return fmt.Errorf("storage: root is a %v", inf.kind)
			}
			continue
		}
		pinf, ok := nodes[parent]
		if !ok {
			return fmt.Errorf("storage: node %v is orphaned (parent %v missing)", id, parent)
		}
		switch inf.kind {
		case xmlmodel.KindElement, xmlmodel.KindText:
			if pinf.kind != xmlmodel.KindElement {
				return fmt.Errorf("storage: %v node %v under %v parent", inf.kind, id, pinf.kind)
			}
			if id.IsReservedChild() {
				return fmt.Errorf("storage: regular node %v uses the reserved division", id)
			}
		case xmlmodel.KindAttributeRoot:
			if pinf.kind != xmlmodel.KindElement {
				return fmt.Errorf("storage: attribute root %v under %v parent", id, pinf.kind)
			}
			if !id.IsReservedChild() {
				return fmt.Errorf("storage: attribute root %v not on the reserved division", id)
			}
		case xmlmodel.KindAttribute:
			if pinf.kind != xmlmodel.KindAttributeRoot {
				return fmt.Errorf("storage: attribute %v under %v parent", id, pinf.kind)
			}
			if inf.name == idSur && idSur != xmlmodel.NoName {
				el := parent.Parent()
				v, err := d.Value(id)
				if err != nil {
					return fmt.Errorf("storage: id attribute %v has no value: %w", id, err)
				}
				if prev, dup := idAttrs[string(v)]; dup {
					return fmt.Errorf("storage: duplicate id %q on %v and %v", v, prev, el)
				}
				idAttrs[string(v)] = el
			}
		case xmlmodel.KindString:
			if pinf.kind != xmlmodel.KindText && pinf.kind != xmlmodel.KindAttribute {
				return fmt.Errorf("storage: string node %v under %v parent", id, pinf.kind)
			}
			if !id.IsReservedChild() {
				return fmt.Errorf("storage: string node %v not on the reserved division", id)
			}
		}
		// Text and attribute nodes must own exactly their string child.
		if inf.kind == xmlmodel.KindText || inf.kind == xmlmodel.KindAttribute {
			if _, ok := nodes[id.StringNode()]; !ok {
				return fmt.Errorf("storage: %v node %v lacks its string child", inf.kind, id)
			}
		}
	}

	// Element index: exact agreement with the stored elements.
	indexed := 0
	var verr error
	scanErr := d.elem.Ascend(nil, nil, func(k, _ []byte) bool {
		indexed++
		if len(k) < 3 {
			verr = fmt.Errorf("storage: element index key too short")
			return false
		}
		sur := xmlmodel.Sur(binary.BigEndian.Uint16(k[:2]))
		id, derr := splid.Decode(k[2:])
		if derr != nil {
			verr = derr
			return false
		}
		want, ok := elements[id]
		if !ok {
			verr = fmt.Errorf("storage: element index entry for missing element %v", id)
			return false
		}
		if want != sur {
			verr = fmt.Errorf("storage: element index names %v as %q, stored name is %q",
				id, d.vocab.Name(sur), d.vocab.Name(want))
			return false
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if verr != nil {
		return verr
	}
	if indexed != len(elements) {
		return fmt.Errorf("storage: element index has %d entries for %d elements", indexed, len(elements))
	}

	// ID index: exact agreement with the stored id attributes.
	idIndexed := 0
	scanErr = d.ids.Ascend(nil, nil, func(k, v []byte) bool {
		idIndexed++
		el, derr := splid.Decode(v)
		if derr != nil {
			verr = derr
			return false
		}
		want, ok := idAttrs[string(k)]
		if !ok {
			verr = fmt.Errorf("storage: id index maps %q to %v but no such id attribute exists", k, el)
			return false
		}
		if want != el {
			verr = fmt.Errorf("storage: id index maps %q to %v, attribute lives on %v", k, el, want)
			return false
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if verr != nil {
		return verr
	}
	if idIndexed != len(idAttrs) {
		return fmt.Errorf("storage: id index has %d entries for %d id attributes", idIndexed, len(idAttrs))
	}
	return nil
}
