package server

import (
	"container/list"
	"sync"

	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
)

// cacheEntry is one cached query: the compiled plan (the optimized pattern)
// and its answer in the richest shape a request has computed so far — the
// count always, the instance list or the incidents only once a request
// asked for them — in the form every tier serves it (eval.Answer): an
// incidents answer is the lists of its array, each written once by the scan
// goroutine that evaluated it, or a coordinator's workers' arrays as they
// arrived, which no tier joins (incident.AppendArray writes them as one). An
// entry serves every request whose shape can be read off what it holds
// (serves); a request it cannot serve is a miss, which evaluates in the
// shape asked for and puts a richer entry in its place.
//
// An entry also records the store version it was computed from: its origin
// (a rebase starts a new one) and its lsn. A snapshot never gains a record,
// so its entries stay valid until LRU pressure displaces them. A live log's
// entry answers a later version of the same origin only while no record
// appended in between can match one of the plan's atoms (get).
//
// Entries are shared between concurrent readers and must be treated as
// read-only: the answer and the plan are never mutated after insert.
type cacheEntry struct {
	plan pattern.Node
	// planText is plan.String(), which every response and capture carries.
	planText string
	shape    eval.Shape
	res      eval.Answer
	atoms    []*pattern.Atom
	origin   *colstore.Origin
	lsn      uint64
}

// serves reports whether the entry holds what a request of the given shape
// needs: shapes are ordered richest first, and a cheap one derives from a
// rich one, never the reverse.
func (e *cacheEntry) serves(shape eval.Shape) bool { return e.shape <= shape }

// instances returns the wids with an incident, ascending.
func (e *cacheEntry) instances() []uint64 {
	if e.shape == eval.ShapeIncidents {
		return incident.IncidentWIDs(e.res.Wire)
	}
	return e.res.WIDs
}

// arrayBytes is the length of the incidents array the entry's lists are
// written as, 0 for an entry of a cheaper shape.
func (e *cacheEntry) arrayBytes() int64 {
	if e.shape != eval.ShapeIncidents {
		return 0
	}
	return int64(incident.ArrayLen(e.res.Wire))
}

// staleAt reports whether a record src holds beyond the entry's lsn can have
// changed its answer: whether one of them carries an activity that
// staleForActivity finds relevant.
func (e *cacheEntry) staleAt(src *colstore.Store) bool {
	for _, act := range src.Activities() {
		if src.ActivityLastLSN(act) > e.lsn && e.staleForActivity(act) {
			return true
		}
	}
	return false
}

// staleForActivity decides whether appending a record with the given
// activity could change the entry's answer. A positive atom matches only
// its own activity, so the append is relevant iff it IS that activity; a
// negated atom ¬t matches every OTHER activity, so the append is relevant
// iff it is NOT t. Any atom that could match the new record means new
// incidents may exist and the entry must go; if no atom matches, no
// incident involving the record can form (incidents are per-instance
// compositions of atom matches) and the cached answer is still exact.
func (e *cacheEntry) staleForActivity(act string) bool {
	for _, a := range e.atoms {
		if a.Negated != (a.Activity == act) {
			return true
		}
	}
	return false
}

// lru is a mutex-guarded least-recently-used cache from canonical query
// keys to cache entries. A nil *lru (caching disabled) is valid: get
// always misses and put is a no-op.
type lru struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used; values are *lruItem
	items     map[string]*list.Element
	evictions uint64
}

type lruItem struct {
	key   string
	entry *cacheEntry
}

// newLRU creates a cache holding at most max entries; max <= 0 disables
// caching (returns nil).
func newLRU(max int) *lru {
	if max <= 0 {
		return nil
	}
	return &lru{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the entry for key if it answers a request that reads version
// at, promoting it to most recently used. It does when it was computed from
// at's origin, at or before at's lsn, and is not staleAt it. An entry from a
// later version is a miss and stays; any other that does not answer is
// dropped, and stale reports it.
func (c *lru) get(key string, at *colstore.Store) (e *cacheEntry, ok, stale bool) {
	if c == nil {
		return nil, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false, false
	}
	e = el.Value.(*lruItem).entry
	lsn := at.LastLSN()
	if e.origin == at.Origin() && e.lsn > lsn {
		return nil, false, false
	}
	if e.origin != at.Origin() || e.lsn < lsn && e.staleAt(at) {
		c.ll.Remove(el)
		delete(c.items, key)
		return nil, false, true
	}
	c.ll.MoveToFront(el)
	return e, true, false
}

// put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *lru) put(key string, e *cacheEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).entry = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, entry: e})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
		c.evictions++
	}
}

// bodyBytes returns the summed length of the incidents arrays the resident
// entries answer with (an entry of a cheaper shape has none).
func (c *lru) bodyBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		n += el.Value.(*lruItem).entry.arrayBytes()
	}
	return n
}

// len returns the current number of entries.
func (c *lru) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// evicted returns the number of entries displaced so far.
func (c *lru) evicted() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
