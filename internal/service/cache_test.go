package service

import (
	"fmt"
	"testing"

	"spamer/internal/experiments"
	"spamer/internal/fabric"
)

// The service's result cache is a fabric.Store keyed by job hash; these
// cases pin the LRU semantics both layers rely on.

func outs(ticks uint64) []experiments.Outcome {
	return []experiments.Outcome{{Benchmark: "b", Algorithm: "vl", Ticks: ticks}}
}

// TestCacheLRUEviction: capacity bounds hold and recency decides the
// victim.
func TestCacheLRUEviction(t *testing.T) {
	c := fabric.NewStore(2)
	c.Put("a", outs(1))
	c.Put("b", outs(2))
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes the LRU
		t.Fatal("a missing")
	}
	c.Put("c", outs(3))
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v[0].Ticks != 1 {
		t.Fatalf("a lost: %v %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v[0].Ticks != 3 {
		t.Fatalf("c lost: %v %v", v, ok)
	}
}

// TestCacheDisabled: a negative CacheEntries reaches the store as a
// non-positive capacity, which stores nothing.
func TestCacheDisabled(t *testing.T) {
	s := New(Options{CacheEntries: -1})
	defer s.Close()
	s.cache.Put("a", outs(1))
	if _, ok := s.cache.Get("a"); ok || s.cache.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestCacheOverwriteRefreshes: re-putting an existing hash updates in
// place without growing.
func TestCacheOverwriteRefreshes(t *testing.T) {
	c := fabric.NewStore(4)
	c.Put("a", outs(1))
	c.Put("a", outs(9))
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if v, _ := c.Get("a"); v[0].Ticks != 9 {
		t.Fatalf("stale value: %v", v)
	}
}

// TestCacheConcurrent: hammering one cache from many goroutines is
// race-clean and never exceeds capacity.
func TestCacheConcurrent(t *testing.T) {
	c := fabric.NewStore(8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%16)
				c.Put(k, outs(uint64(i)))
				c.Get(k)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Len() > 8 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}
