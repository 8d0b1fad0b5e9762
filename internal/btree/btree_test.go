package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/splid"
)

func newTree(t testing.TB) *Tree {
	t.Helper()
	s := pagestore.Open(pagestore.NewMemBackend(), 256)
	tr, err := Create(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return tr
}

func TestInsertGet(t *testing.T) {
	tr := newTree(t)
	if err := tr.Insert([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get([]byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, err)
	}
	if _, err := tr.Get([]byte("zz")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(zz) = %v, want ErrNotFound", err)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
	// Upsert.
	if err := tr.Insert([]byte("a"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, _ = tr.Get([]byte("a"))
	if string(v) != "one" {
		t.Errorf("after upsert Get(a) = %q", v)
	}
	if tr.Len() != 2 {
		t.Errorf("Len after upsert = %d", tr.Len())
	}
}

func TestInsertValidation(t *testing.T) {
	tr := newTree(t)
	if err := tr.Insert(nil, []byte("v")); err == nil {
		t.Error("empty key should fail")
	}
	if err := tr.Insert(make([]byte, MaxKeyLen+1), nil); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("long key: %v", err)
	}
	if err := tr.Insert([]byte("k"), make([]byte, MaxValueLen+1)); !errors.Is(err, ErrValueTooLong) {
		t.Errorf("long value: %v", err)
	}
	if err := tr.Insert(make([]byte, MaxKeyLen), make([]byte, MaxValueLen)); err != nil {
		t.Errorf("max-size cell should fit: %v", err)
	}
}

func TestSplitsManyKeys(t *testing.T) {
	tr := newTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := []byte(fmt.Sprintf("val-%d", i))
		if err := tr.Insert(k, v); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, err := tr.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %d = %q", i, v)
		}
	}
	// Full ascending scan is sorted and complete.
	var last []byte
	count := 0
	err := tr.Ascend(nil, nil, func(k, v []byte) bool {
		if last != nil && bytes.Compare(last, k) >= 0 {
			t.Fatalf("scan out of order: %q after %q", k, last)
		}
		last = append(last[:0], k...)
		count++
		return true
	})
	if err != nil || count != n {
		t.Fatalf("scan: count=%d err=%v", count, err)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 1000; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	for i := 0; i < 1000; i += 2 {
		if err := tr.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tr.Len() != 500 {
		t.Errorf("Len = %d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		_, err := tr.Get([]byte(fmt.Sprintf("k%04d", i)))
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d still present (err=%v)", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("kept key %d lost: %v", i, err)
		}
	}
	if err := tr.Delete([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(nope) = %v", err)
	}
}

func TestDeleteAllAndReuse(t *testing.T) {
	tr := newTree(t)
	for round := 0; round < 3; round++ {
		for i := 0; i < 2000; i++ {
			if err := tr.Insert([]byte(fmt.Sprintf("r%d-k%05d", round, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			if err := tr.Delete([]byte(fmt.Sprintf("r%d-k%05d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("round %d: Len = %d", round, tr.Len())
		}
	}
	// Page reuse kept the file from growing without bound: after 3 identical
	// rounds the backend should hold far fewer pages than 3x a single round.
	if n := tr.store.Backend().NumPages(); n > 200 {
		t.Errorf("backend grew to %d pages despite free-list reuse", n)
	}
}

func TestAscendRange(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 100; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
	}
	var got []string
	tr.Ascend([]byte("k010"), []byte("k015"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"k010", "k011", "k012", "k013", "k014"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("range scan = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	tr.Ascend(nil, nil, func(k, v []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestDescend(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 100; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%03d", i)), nil)
	}
	var got []string
	tr.Descend([]byte("k005"), []byte("k002"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"k004", "k003", "k002"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Descend = %v, want %v", got, want)
	}
	// nil high starts at the last key inclusive.
	got = got[:0]
	tr.Descend(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 2
	})
	if fmt.Sprint(got) != fmt.Sprint([]string{"k099", "k098"}) {
		t.Errorf("Descend(nil) = %v", got)
	}
}

func TestSeeks(t *testing.T) {
	tr := newTree(t)
	for _, k := range []string{"b", "d", "f"} {
		tr.Insert([]byte(k), []byte(k+k))
	}
	check := func(name string, k []byte, err error, want string) {
		t.Helper()
		if want == "" {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("%s: got %q, err %v; want ErrNotFound", name, k, err)
			}
			return
		}
		if err != nil || string(k) != want {
			t.Errorf("%s = %q, %v; want %q", name, k, err, want)
		}
	}
	k, _, err := tr.SeekGE([]byte("c"))
	check("SeekGE(c)", k, err, "d")
	k, _, err = tr.SeekGE([]byte("d"))
	check("SeekGE(d)", k, err, "d")
	k, _, err = tr.SeekGE([]byte("g"))
	check("SeekGE(g)", k, err, "")
	k, _, err = tr.SeekGT([]byte("d"))
	check("SeekGT(d)", k, err, "f")
	k, _, err = tr.SeekGT([]byte("f"))
	check("SeekGT(f)", k, err, "")
	k, _, err = tr.SeekLT([]byte("d"))
	check("SeekLT(d)", k, err, "b")
	k, _, err = tr.SeekLT([]byte("b"))
	check("SeekLT(b)", k, err, "")
	k, _, err = tr.SeekLE([]byte("d"))
	check("SeekLE(d)", k, err, "d")
	k, _, err = tr.SeekLE([]byte("e"))
	check("SeekLE(e)", k, err, "d")
	k, _, err = tr.SeekLE([]byte("a"))
	check("SeekLE(a)", k, err, "")
	k, _, err = tr.SeekLT(nil)
	check("SeekLT(nil)", k, err, "f")
}

func TestDeleteRange(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 200; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%03d", i)), nil)
	}
	n, err := tr.DeleteRange([]byte("k050"), []byte("k150"))
	if err != nil || n != 100 {
		t.Fatalf("DeleteRange = %d, %v", n, err)
	}
	if tr.Len() != 100 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, err := tr.Get([]byte("k100")); !errors.Is(err, ErrNotFound) {
		t.Error("k100 should be gone")
	}
	if _, err := tr.Get([]byte("k049")); err != nil {
		t.Error("k049 should remain")
	}
	if _, err := tr.Get([]byte("k150")); err != nil {
		t.Error("k150 (exclusive limit) should remain")
	}
}

func TestOpenRecomputesLen(t *testing.T) {
	s := pagestore.Open(pagestore.NewMemBackend(), 256)
	defer s.Close()
	tr, err := Create(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	root := tr.Root()
	tr2, err := Open(s, root)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 500 {
		t.Errorf("reopened Len = %d", tr2.Len())
	}
	if v, err := tr2.Get([]byte("k123")); err != nil || string(v) != "v" {
		t.Errorf("reopened Get = %q, %v", v, err)
	}
}

// TestModelEquivalence drives the tree and a sorted-map model with the same
// random operation stream and checks full agreement, including range scans.
func TestModelEquivalence(t *testing.T) {
	tr := newTree(t)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	randKey := func() []byte {
		return []byte(fmt.Sprintf("key-%04d", rng.Intn(3000)))
	}
	for step := 0; step < 20000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // insert
			k := randKey()
			v := []byte(fmt.Sprintf("v%d", step))
			if err := tr.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = string(v)
		case 5, 6: // delete
			k := randKey()
			err := tr.Delete(k)
			_, inModel := model[string(k)]
			if inModel != (err == nil) {
				t.Fatalf("step %d: delete(%s) err=%v, model has=%v", step, k, err, inModel)
			}
			delete(model, string(k))
		case 7, 8: // get
			k := randKey()
			v, err := tr.Get(k)
			mv, inModel := model[string(k)]
			if inModel != (err == nil) || (inModel && string(v) != mv) {
				t.Fatalf("step %d: get(%s) = %q,%v; model %q,%v", step, k, v, err, mv, inModel)
			}
		case 9: // occasional full-scan comparison
			if step%500 != 0 {
				continue
			}
			var keys []string
			for k := range model {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			i := 0
			err := tr.Ascend(nil, nil, func(k, v []byte) bool {
				if i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
					t.Fatalf("step %d: scan diverges at %d: %q", step, i, k)
				}
				i++
				return true
			})
			if err != nil || i != len(keys) {
				t.Fatalf("step %d: scan count %d want %d (err %v)", step, i, len(keys), err)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("step %d: Len %d != model %d", step, tr.Len(), len(model))
		}
	}
}

func TestSPLIDKeysDocumentOrder(t *testing.T) {
	// Store a small taDOM tree by encoded SPLID and verify scans deliver
	// document order and subtree ranges work via SubtreeLimit.
	tr := newTree(t)
	labels := []string{
		"1", "1.3", "1.3.3", "1.3.3.1", "1.3.3.1.3", "1.3.5", "1.3.5.3",
		"1.5", "1.5.3", "1.5.3.3", "1.5.3.3.3", "1.5.5",
	}
	perm := rand.New(rand.NewSource(3)).Perm(len(labels))
	for _, i := range perm {
		id := splid.MustParse(labels[i])
		if err := tr.Insert(id.Encode(), []byte(labels[i])); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	tr.Ascend(nil, nil, func(k, v []byte) bool {
		got = append(got, string(v))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(labels) {
		t.Errorf("document order scan = %v", got)
	}
	// Subtree scan of 1.3.
	sub := splid.MustParse("1.3")
	got = got[:0]
	tr.Ascend(sub.Encode(), sub.SubtreeLimit().Encode(), func(k, v []byte) bool {
		got = append(got, string(v))
		return true
	})
	want := []string{"1.3", "1.3.3", "1.3.3.1", "1.3.3.1.3", "1.3.5", "1.3.5.3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("subtree scan = %v, want %v", got, want)
	}
}

func TestConcurrentReaders(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 2000; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var h Hint // every other read starts from the leaf the last one left
			for i := 0; i < 300; i++ {
				n := rng.Intn(2000)
				k := []byte(fmt.Sprintf("k%05d", n))
				get := tr.Get
				if i%2 == 1 {
					get = func(k []byte) ([]byte, error) { return hintedGet(tr, &h, k) }
				}
				v, err := get(k)
				if err != nil || string(v) != fmt.Sprintf("v%d", n) {
					t.Errorf("get %d = %q, %v", n, v, err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestConcurrentMixed(t *testing.T) {
	tr := newTree(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("w%d-k%04d", w, i))
				if err := tr.Insert(k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := tr.Delete(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := 0
	for w := 0; w < 4; w++ {
		for i := 0; i < 500; i++ {
			if i%3 != 0 {
				want++
			}
		}
	}
	if tr.Len() != want {
		t.Errorf("Len = %d, want %d", tr.Len(), want)
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := newTree(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert([]byte(fmt.Sprintf("key-%09d", i)), []byte("value"))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := newTree(b)
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Insert([]byte(fmt.Sprintf("key-%09d", i)), []byte("value"))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get([]byte(fmt.Sprintf("key-%09d", i%n)))
	}
}

func BenchmarkAscend(b *testing.B) {
	tr := newTree(b)
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Insert([]byte(fmt.Sprintf("key-%09d", i)), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.Ascend(nil, nil, func(k, v []byte) bool { count++; return true })
		if count != n {
			b.Fatal("bad count")
		}
	}
}

func TestSeparatorTruncation(t *testing.T) {
	tr := newTree(t)
	// Long shared-prefix keys: separators must be truncated well below the
	// full key length.
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("a/very/long/common/prefix/key-%06d", i))
		if err := tr.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 3000 || st.Depth < 2 || st.Separators == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The full keys are 34 bytes; page prefix compression must shrink the
	// stored suffixes to a few bytes (the paper's "2-3 bytes on average").
	const fullKeyLen = 34.0
	avgStored := float64(st.KeyBytes+st.PrefixBytes) / float64(st.Keys)
	if avgStored > fullKeyLen/3 {
		t.Errorf("stored key bytes %.1fB, want heavy compression of %.0fB keys", avgStored, fullKeyLen)
	}
	avgSep := float64(st.SeparatorBytes) / float64(st.Separators)
	if avgSep > fullKeyLen+4 {
		t.Errorf("separator suffixes average %.1fB, want at most roughly one full key", avgSep)
	}
	// Lookups still work everywhere (routing via truncated separators).
	for i := 0; i < 3000; i += 7 {
		k := []byte(fmt.Sprintf("a/very/long/common/prefix/key-%06d", i))
		if _, err := tr.Get(k); err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
	}
	// Range scans unaffected.
	n := 0
	tr.Ascend(nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 3000 {
		t.Errorf("scan count = %d", n)
	}
}

func TestShortestSeparator(t *testing.T) {
	cases := []struct{ left, right, want string }{
		{"abc", "abd", "abd"},
		{"abc", "abcx", "abcx"},
		{"a", "b", "b"},
		{"abcdef", "abcq", "abcq"},
		{"abc/1", "abc/2zzzzzz", "abc/2"},
	}
	for _, c := range cases {
		got := shortestSeparator([]byte(c.left), []byte(c.right))
		if string(got) != c.want {
			t.Errorf("shortestSeparator(%q, %q) = %q, want %q", c.left, c.right, got, c.want)
		}
		if !(c.left < string(got) && string(got) <= c.right) {
			t.Errorf("separator %q does not separate %q and %q", got, c.left, c.right)
		}
	}
}
