package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intTree(order int) *Tree[int, string] {
	return New[int, string](order, func(a, b int) bool { return a < b })
}

func TestEmptyTree(t *testing.T) {
	tr := intTree(4)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree found a value")
	}
	count := 0
	tr.Ascend(func(int, string) bool { count++; return true })
	if count != 0 {
		t.Fatal("Ascend on empty tree visited entries")
	}
}

func TestPutGetReplace(t *testing.T) {
	tr := intTree(4)
	if _, replaced := tr.Put(1, "a"); replaced {
		t.Fatal("fresh Put reported replacement")
	}
	old, replaced := tr.Put(1, "b")
	if !replaced || old != "a" {
		t.Fatalf("replace = %v %q", replaced, old)
	}
	if v, ok := tr.Get(1); !ok || v != "b" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestOrderedIterationAfterRandomInserts(t *testing.T) {
	tr := intTree(5)
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(1000)
	for _, k := range perm {
		tr.Put(k, "")
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	prev := -1
	tr.Ascend(func(k int, _ string) bool {
		if k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		prev = k
		return true
	})
	if prev != 999 {
		t.Fatalf("last key = %d, want 999", prev)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := intTree(4)
	for i := 0; i < 50; i++ {
		tr.Put(i, "")
	}
	count := 0
	tr.Ascend(func(int, string) bool { count++; return count < 7 })
	if count != 7 {
		t.Fatalf("visited %d, want 7", count)
	}
}

func TestSmallOrderStress(t *testing.T) {
	// Order 3 maximizes splits.
	tr := intTree(3)
	ref := map[int]string{}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		k := rng.Intn(300)
		v := string(rune('a' + (k+i)%26))
		old, replaced := tr.Put(k, v)
		if refOld, refOK := ref[k]; replaced != refOK || old != refOld {
			t.Fatalf("step %d: Put(%d) replaced %q %v, ref %q %v", i, k, old, replaced, refOld, refOK)
		}
		ref[k] = v
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, ref %d", i, tr.Len(), len(ref))
		}
	}
	// Full content check.
	keys := make([]int, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	i := 0
	tr.Ascend(func(k int, v string) bool {
		if i >= len(keys) || k != keys[i] || v != ref[k] {
			t.Fatalf("iteration mismatch at %d: got (%d,%q)", i, k, v)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("iterated %d entries, want %d", i, len(keys))
	}
}

func TestPanicOnTinyOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2) did not panic")
		}
	}()
	New[int, int](2, func(a, b int) bool { return a < b })
}

func TestStringKeys(t *testing.T) {
	tr := New[string, int](4, func(a, b string) bool { return a < b })
	words := []string{"dataset", "group", "attr", "chunk", "superblock", "link"}
	for i, w := range words {
		tr.Put(w, i)
	}
	var got []string
	tr.Ascend(func(k string, _ int) bool { got = append(got, k); return true })
	if !sort.StringsAreSorted(got) {
		t.Fatalf("not sorted: %v", got)
	}
}

// TestQuickModelEquivalence is a property test: after an arbitrary
// sequence of puts, the tree matches a reference map, key by key, and
// iterates in sorted order.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(ops []int16, seed int64) bool {
		tr := New[int16, int16](3+int(seed%6+5)%6+3, func(a, b int16) bool { return a < b })
		ref := map[int16]int16{}
		for i, k := range ops {
			if v, ok := tr.Get(k); ok != (ref[k] != 0) || v != ref[k] {
				return false
			}
			tr.Put(k, int16(i+1))
			ref[k] = int16(i + 1)
		}
		if tr.Len() != len(ref) {
			return false
		}
		prevSet := false
		var prev int16
		ok := true
		n := 0
		tr.Ascend(func(k, v int16) bool {
			if prevSet && k <= prev {
				ok = false
				return false
			}
			prev, prevSet = k, true
			if rv, exists := ref[k]; !exists || rv != v {
				ok = false
				return false
			}
			n++
			return true
		})
		return ok && n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	tr := intTree(64)
	for i := 0; i < b.N; i++ {
		tr.Put(i*2654435761%1000000, "")
	}
}

func BenchmarkGet(b *testing.B) {
	tr := intTree(64)
	for i := 0; i < 100000; i++ {
		tr.Put(i, "")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(i % 100000)
	}
}
