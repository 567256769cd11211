package experiment

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestCachePlanDedup(t *testing.T) {
	c := NewCache()
	keys := []string{"a", "b", "a", "c", "b"}
	p := c.Plan(keys)
	if got := p.Misses(); got != 3 {
		t.Fatalf("Misses = %d, want 3 (a, b, c)", got)
	}
	if p.Run[0] != 0 || p.Run[1] != 1 || p.Run[2] != 3 {
		t.Fatalf("Run = %v, want first occurrences [0 1 3]", p.Run)
	}
	out := c.Commit(p, []any{"ra", "rb", "rc"})
	want := []any{"ra", "rb", "ra", "rc", "rb"}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Second batch: everything hits.
	p2 := c.Plan([]string{"c", "a"})
	if p2.Misses() != 0 {
		t.Fatalf("second plan misses %d, want 0", p2.Misses())
	}
	out2 := c.Commit(p2, nil)
	if out2[0] != "rc" || out2[1] != "ra" {
		t.Errorf("cached results wrong: %v", out2)
	}
	// First batch: 2 intra-batch dupes; second batch: 2 store hits.
	hits, misses := c.Stats()
	if hits != 4 || misses != 3 {
		t.Errorf("Stats = %d hits %d misses, want 4/3", hits, misses)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

func TestCacheDisabledIsIdentity(t *testing.T) {
	c := NewCache()
	c.SetEnabled(false)
	if c.Enabled() {
		t.Fatal("SetEnabled(false) did not stick")
	}
	keys := []string{"a", "a", "b"}
	p := c.Plan(keys)
	if p.Misses() != 3 {
		t.Fatalf("disabled cache deduped: Misses = %d, want 3", p.Misses())
	}
	out := c.Commit(p, []any{1, 2, 3})
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Errorf("identity commit broken: %v", out)
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache stored %d results", c.Len())
	}
	// Re-enable: previous batch must not have leaked in.
	c.SetEnabled(true)
	if p := c.Plan([]string{"a"}); p.Misses() != 1 {
		t.Error("disabled batch leaked into store")
	}
}

func TestCacheNilFreshNotStored(t *testing.T) {
	c := NewCache()
	p := c.Plan([]string{"fail", "ok"})
	out := c.Commit(p, []any{nil, "r"})
	if out[0] != nil || out[1] != "r" {
		t.Fatalf("commit mangled results: %v", out)
	}
	if c.Len() != 1 {
		t.Fatalf("nil result cached: Len = %d, want 1", c.Len())
	}
	if p := c.Plan([]string{"fail"}); p.Misses() != 1 {
		t.Error("failed run served from cache")
	}
}

// An empty key always runs: it is never answered from the store, no
// request folds into it, and its result is not kept.
func TestCacheEmptyKeyAlwaysRuns(t *testing.T) {
	c := NewCache()
	p := c.Plan([]string{"", "a", "", "a"})
	if !slices.Equal(p.Run, []int{0, 1, 2}) {
		t.Fatalf("Run = %v, want [0 1 2]", p.Run)
	}
	out := c.Commit(p, []any{"x", "r", "y"})
	if !slices.Equal(out, []any{"x", "r", "y", "r"}) {
		t.Fatalf("commit = %v", out)
	}
	if c.Len() != 1 {
		t.Fatalf("an unkeyed result was stored: Len = %d, want 1", c.Len())
	}
	if p := c.Plan([]string{""}); p.Misses() != 1 {
		t.Fatal("an unkeyed request was answered from the store")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache()
	c.Commit(c.Plan([]string{"a"}), []any{"r"})
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset kept entries")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("Reset kept counters: %d/%d", h, m)
	}
}

func TestCacheCommitMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Commit did not panic")
		}
	}()
	c := NewCache()
	c.Commit(c.Plan([]string{"a"}), nil)
}

// TestCacheConcurrent exercises Plan/Commit/Stats/Len from many
// goroutines; run under -race in scripts/check.sh.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				keys := []string{
					fmt.Sprintf("k%d", i%7),
					fmt.Sprintf("k%d", (i+g)%7),
				}
				p := c.Plan(keys)
				fresh := make([]any, p.Misses())
				for j, at := range p.Run {
					fresh[j] = keys[at]
				}
				out := c.Commit(p, fresh)
				for j, v := range out {
					if v != keys[j] {
						t.Errorf("goroutine %d: out[%d] = %v, want %v", g, j, v, keys[j])
						return
					}
				}
				c.Stats()
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 7 {
		t.Errorf("store grew beyond key space: %d", c.Len())
	}
}
