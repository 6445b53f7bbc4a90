package server

import (
	"fmt"
	"testing"

	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
)

// snapshot is the version of a log that never gains a record.
var snapshot = new(colstore.Store)

func entry(n int) *cacheEntry {
	return &cacheEntry{answer: eval.Answer{Count: 1, Set: incident.NewSet(incident.New(uint64(n), 1))}}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.put("a", entry(1))
	c.put("b", entry(2))
	if _, ok, _ := c.get("a", snapshot); !ok {
		t.Fatal("a missing before capacity reached")
	}
	// "a" was just used, so inserting "c" must evict "b".
	c.put("c", entry(3))
	if _, ok, _ := c.get("b", snapshot); ok {
		t.Error("b not evicted as least recently used")
	}
	if _, ok, _ := c.get("a", snapshot); !ok {
		t.Error("a evicted despite recent use")
	}
	if _, ok, _ := c.get("c", snapshot); !ok {
		t.Error("c missing after insert")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	if c.evicted() != 1 {
		t.Errorf("evicted = %d, want 1", c.evicted())
	}
}

func TestLRURefreshSameKey(t *testing.T) {
	c := newLRU(2)
	c.put("a", entry(1))
	c.put("a", entry(2))
	if c.len() != 1 {
		t.Fatalf("len = %d after double insert of one key, want 1", c.len())
	}
	e, ok, _ := c.get("a", snapshot)
	if !ok || e.answer.Set.At(0).WID() != 2 {
		t.Fatal("refresh did not replace the entry")
	}
}

func TestLRUDisabled(t *testing.T) {
	for _, c := range []*lru{newLRU(0), newLRU(-5), nil} {
		c.put("a", entry(1))
		if _, ok, _ := c.get("a", snapshot); ok {
			t.Error("disabled cache returned a hit")
		}
		if c.len() != 0 || c.evicted() != 0 {
			t.Error("disabled cache reports contents")
		}
	}
}

func TestLRUManyKeysBounded(t *testing.T) {
	c := newLRU(8)
	for i := 0; i < 100; i++ {
		c.put(fmt.Sprintf("k%d", i), entry(i))
	}
	if c.len() != 8 {
		t.Fatalf("len = %d, want 8", c.len())
	}
	if c.evicted() != 92 {
		t.Fatalf("evicted = %d, want 92", c.evicted())
	}
	// The most recent 8 keys survive.
	for i := 92; i < 100; i++ {
		if _, ok, _ := c.get(fmt.Sprintf("k%d", i), snapshot); !ok {
			t.Errorf("recent key k%d evicted", i)
		}
	}
}
