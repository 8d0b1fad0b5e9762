package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocPathsExist fails when DESIGN.md or README.md names, in backticks, a
// repository path that does not exist, so deleting or moving a file cannot
// leave the documents pointing at it. A path counts when its first element is
// a top-level directory (`internal/wal`, `cmd/xtcd`, `bench/README.md`) or a
// package under internal/ (`pagestore/capture.go`).
func TestDocPathsExist(t *testing.T) {
	isDir := func(p string) bool {
		fi, err := os.Stat(p)
		return err == nil && fi.IsDir()
	}
	token := regexp.MustCompile("`([^`\\s]+)`")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, m := range token.FindAllStringSubmatch(string(text), -1) {
			tok := strings.TrimPrefix(m[1], "./")
			first, _, ok := strings.Cut(tok, "/")
			path := tok
			switch {
			case !ok || first == "" || first == "." || first == "..":
				continue
			case isDir(first):
			case isDir("internal/" + first):
				path = "internal/" + tok
			default:
				continue
			}
			checked++
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names `%s`, but %s does not exist", doc, m[1], path)
			}
		}
		if checked == 0 {
			t.Errorf("%s names no repository path: the test matched nothing", doc)
		}
	}
}

// TestDocTestNamesExist fails when DESIGN.md or README.md names, in
// backticks, a Test, Benchmark or Fuzz function that no _test.go file
// defines. A package qualifier is dropped (`node.TestLevelRead…` is
// `TestLevelRead…`), so is a subtest path (`BenchmarkX/case`), and a
// trailing `*` matches a prefix (`pagestore.TestFixAt*`).
func TestDocTestNamesExist(t *testing.T) {
	defined := map[string]bool{}
	fn := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range fn.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string) bool {
		prefix, star := strings.CutSuffix(name, "*")
		if !star {
			return defined[name]
		}
		for d := range defined {
			if strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}
	token := regexp.MustCompile("`(?:\\w+\\.)?((?:Test|Benchmark|Fuzz)[A-Z0-9_]\\w*\\*?)(?:/[^`\\s]*)?`")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, m := range token.FindAllStringSubmatch(string(text), -1) {
			if checked++; !exists(m[1]) {
				t.Errorf("%s names `%s`, but no _test.go file defines it", doc, m[1])
			}
		}
		if checked == 0 {
			t.Errorf("%s names no test function: the test matched nothing", doc)
		}
	}
}
