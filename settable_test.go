package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// settableBudget is the number of values a caller can set: the exported
// fields of the exported *Config, *Options and *Policy structs under
// internal/ plus the flags the commands under cmd/ define. A change that
// adds one removes another or raises this number, in the open, as
// LOC_BUDGET does for lines.
const settableBudget = 105

// designBudget is the size of DESIGN.md in bytes. A change that grows the
// document shortens it elsewhere or raises this number, in the open, as
// settableBudget does for settable values.
const designBudget = 96783

// TestSettableValues counts the settable values and fails above
// settableBudget, printing the count per struct and per command. An embedded
// struct counts where it is declared, not again in the struct embedding it.
func TestSettableValues(t *testing.T) {
	counts := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		top, _, _ := strings.Cut(filepath.ToSlash(path), "/")
		if top != "internal" && top != "cmd" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if top != "internal" || !ok || !n.Name.IsExported() || !settableType(n.Name.Name) {
					return true
				}
				key := f.Name.Name + "." + n.Name.Name
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() {
							counts[key]++
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || top != "cmd" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && definesFlag(sel.Sel.Name) {
					counts[dir]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(counts))
	total := 0
	for k, n := range counts {
		keys = append(keys, k)
		total += n
	}
	sort.Strings(keys)
	var table strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&table, "%4d %s\n", counts[k], k)
	}
	fmt.Fprintf(&table, "%4d total\n", total)
	if total > settableBudget {
		t.Fatalf("%d settable values exceed the budget of %d:\n%s", total, settableBudget, table.String())
	}
	t.Logf("%d settable values, budget %d:\n%s", total, settableBudget, table.String())
}

// TestDesignBudget fails when DESIGN.md grows past designBudget and prints
// its size either way.
func TestDesignBudget(t *testing.T) {
	fi, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > designBudget {
		t.Fatalf("DESIGN.md is %d bytes, over the budget of %d", fi.Size(), designBudget)
	}
	t.Logf("DESIGN.md is %d bytes, budget %d", fi.Size(), designBudget)
}

func settableType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")
}

// definesFlag reports whether the flag package function name defines a flag
// (flag.Parse, flag.Args and the like do not).
func definesFlag(name string) bool {
	switch strings.TrimSuffix(name, "Var") {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc", "Text", "":
		return true
	}
	return false
}
