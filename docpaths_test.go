package repro

import (
	"os"
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
