package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"wlq"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
)

// snapshot is the version of a log that never gains a record.
var snapshot = new(colstore.Store)

func entry(n int) *cacheEntry {
	return &cacheEntry{res: eval.Answer{Count: 1, Wire: [][]byte{wireList([]incident.Incident{incident.New(uint64(n), 1)})}}}
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
	if !ok || e.instances()[0] != 2 {
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

// TestCacheBodyBytes: the cache_body_bytes gauge is the summed length of the
// resident entries' incidents arrays — each the whole answer's array from
// the miss that filled the entry, a truncated miss's too — on a single node
// and on a coordinator alike. A count entry holds none, and an evicted entry
// no longer counts.
func TestCacheBodyBytes(t *testing.T) {
	l, err := wlq.ClinicLog(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	// array is the length of a query's whole incidents array, as a server
	// without a cache writes it.
	ref := clinicServer(t, Config{CacheSize: -1}, 300)
	array := func(query string) int64 {
		var doc struct{ Incidents json.RawMessage }
		if rec := postQuery(t, ref, fmt.Sprintf(`{"log":"clinic","query":%q}`, query), &doc); rec.Code != http.StatusOK || len(doc.Incidents) <= len("[]") {
			t.Fatalf("%s: %d: %s", query, rec.Code, rec.Body)
		}
		return int64(len(doc.Incidents))
	}
	const (
		full      = "GetRefer -> SeeDoctor"
		truncated = "GetRefer | GetReimburse"
		counted   = "SeeDoctor"
		evicting  = "UpdateRefer & TakeTreatment"
	)
	steps := []struct {
		name, body string
		want       int64
	}{
		{"a full incidents miss", `{"log":"clinic","query":"` + full + `"}`, array(full)},
		{"a max_results miss", `{"log":"clinic","query":"` + truncated + `","max_results":2}`, array(full) + array(truncated)},
		{"a count miss", `{"log":"clinic","query":"` + counted + `","mode":"count"}`, array(full) + array(truncated)},
		{"an eviction", `{"log":"clinic","query":"` + evicting + `"}`, array(truncated) + array(evicting)},
	}
	const entries = 3 // the fourth miss evicts the first
	single := New(Config{CacheSize: entries})
	if err := single.AddLog("clinic", "builtin:clinic", l); err != nil {
		t.Fatal(err)
	}
	fleet := newClusterFixture(t, 2, "clinic", l, nil, func(c *Config) { c.CacheSize = entries })
	for name, h := range map[string]http.Handler{"single node": single.Handler(), "coordinator": fleet.coord.Handler()} {
		for _, st := range steps {
			if rec := postQuery(t, h, st.body, nil); rec.Code != http.StatusOK {
				t.Fatalf("%s, %s: %d: %s", name, st.name, rec.Code, rec.Body)
			}
			var m metricsDoc
			getJSON(t, h, "/metrics", &m)
			if m.CacheBodyBytes != st.want {
				t.Errorf("%s, after %s: cache_body_bytes = %d, want %d", name, st.name, m.CacheBodyBytes, st.want)
			}
		}
	}
}
