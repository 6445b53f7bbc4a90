package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"wlq"
	"wlq/internal/cluster"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/gen"
	"wlq/internal/logio"
	"wlq/internal/wlog"
)

// The served differential: whatever tier answers — a single node, a cluster,
// a live log between appends, the cache in any state, a request that accepts
// a partial answer — and whichever mode is asked, the response is held to one
// oracle, naive Algorithm 1 over the row index.

// oracleSet is naive Algorithm 1's incL(q) over l.
func oracleSet(l *wlog.Log, q string) *incident.Set {
	return eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive}).Eval(pattern.MustParse(q))
}

// assertAnswerMatches holds one decoded 200 or 206 response of the given mode
// to want: an exact count and exists in every mode, the instance list and the
// incidents in theirs — a truncated list the oracle's first incidents — and no
// array in a mode that has none.
func assertAnswerMatches(t *testing.T, q, mode string, got queryResponse, want *incident.Set) {
	t.Helper()
	if got.Mode != mode || got.Count != want.Len() || got.Exists != (want.Len() > 0) {
		t.Errorf("%q %s: mode %q count %d exists %v; naive Algorithm 1 has %d", q, mode, got.Mode, got.Count, got.Exists, want.Len())
	}
	var wantWIDs []uint64
	var wantIncidents []incidentDoc
	switch mode {
	case "instances":
		wantWIDs = want.WIDs()
	case "incidents":
		if want.Len() > 0 { // the wire form omits an empty list
			wantIncidents = incidentDocs(want.Incidents())
		}
		if got.Truncated {
			if len(got.Incidents) == 0 || len(got.Incidents) >= want.Len() {
				t.Errorf("%q %s: truncated to %d of %d incidents", q, mode, len(got.Incidents), want.Len())
			} else {
				wantIncidents = wantIncidents[:len(got.Incidents)]
			}
		}
	}
	if got.Truncated && mode != "incidents" {
		t.Errorf("%q %s: a %s answer truncated", q, mode, mode)
	}
	if !slices.Equal(got.Instances, wantWIDs) {
		t.Errorf("%q %s: instances %v, want %v", q, mode, got.Instances, wantWIDs)
	}
	if digestOf(got) != digestOf(queryResponse{queryHead: queryHead{Count: want.Len()}, Incidents: wantIncidents}) {
		t.Errorf("%q %s: served incidents diverge from naive Algorithm 1\nserved: %s\noracle: %s", q, mode, digestOf(got), want)
	}
}

// assertServedMatchesOracle posts each query in every mode — the i-th query
// starting from the i-th mode, so that with the cache on every order of
// richer-after-cheaper and cheaper-after-richer comes up — with the further
// request members extra, and requires the oracle's answer in a 200.
func assertServedMatchesOracle(t *testing.T, h http.Handler, extra, name string, l *wlog.Log, queries []string) {
	t.Helper()
	for i, q := range queries {
		want := oracleSet(l, q)
		for j := range answerModes {
			mode := answerModes[(i+j)%len(answerModes)]
			var got queryResponse
			body := fmt.Sprintf(`{"log":%q,"query":%q,"mode":%q%s}`, name, q, mode, extra)
			if rec := postQuery(t, h, body, &got); rec.Code != http.StatusOK {
				t.Fatalf("%q %s: status %d: %s", q, mode, rec.Code, rec.Body)
			}
			assertAnswerMatches(t, q, mode, got, want)
		}
	}
}

// generatedCase is a random log and random patterns over its alphabet (all
// four operators, negated atoms, an absent activity, the boundary records).
func generatedCase(t *testing.T, seed int64) (*wlog.Log, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	alphabet := gen.Alphabet(3 + rng.Intn(4))
	l, err := gen.RandomLog(gen.LogParams{
		Instances:        9 + rng.Intn(12),
		MeanLength:       3 + rng.Intn(8),
		Alphabet:         alphabet,
		Skew:             rng.Float64() * 1.5,
		CompleteFraction: 0.3 + 0.7*rng.Float64(),
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{mixedSizesQuery(alphabet)}
	for len(queries) < 6 {
		p := gen.RandomPattern(rng, gen.PatternParams{
			Operators:  rng.Intn(5),
			Alphabet:   append(alphabet, "NoSuchActivity", "START", "END"),
			NegateProb: 0.2,
		})
		queries = append(queries, p.String())
	}
	return l, queries
}

// mixedSizesQuery is the plan no summary counts: operands of mixed incident
// sizes under ≺.
func mixedSizesQuery(alphabet []string) string {
	a, b, c := alphabet[0], alphabet[1], alphabet[2]
	return fmt.Sprintf("(%s | (%s -> %s)) -> (%s | (%s -> %s))", a, a, b, c, b, c)
}

func serverOver(t *testing.T, cfg Config, name string, l *wlog.Log) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	if err := s.AddLog(name, "builtin:"+name, l); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServedModesMatchOracle: generated log × generated pattern × every mode
// on every tier, with the result cache on (so most answers after a query's
// first are derived from an entry, or replace one) and off; "shards 3" is a
// single node scanning in three chunks and accepting a partial answer, which
// with no fault changes nothing.
func TestServedModesMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		l, queries := generatedCase(t, seed)
		single := func(cfg Config) func() http.Handler {
			return func() http.Handler { return serverOver(t, cfg, "gen", l).Handler() }
		}
		tiers := map[string]struct {
			handler func() http.Handler
			extra   string
		}{
			"single":       {single(Config{}), ""},
			"single/naive": {single(Config{Strategy: eval.StrategyNaive}), ""},
			"cache off":    {single(Config{CacheSize: -1}), ""},
			"shards 3":     {single(Config{Workers: 3}), `,"partial":true`},
			"2 workers":    {func() http.Handler { return newClusterFixture(t, 2, "gen", l, nil, nil).coord.Handler() }, ""},
			"2 workers/cache off": {func() http.Handler {
				return newClusterFixture(t, 2, "gen", l, nil, func(c *Config) { c.CacheSize = -1 }).coord.Handler()
			}, ""},
			// Truncation cuts the spliced array, off a cache entry that holds
			// only the bytes, or off a miss.
			"2 workers/max_results 1": {func() http.Handler { return newClusterFixture(t, 2, "gen", l, nil, nil).coord.Handler() }, `,"max_results":1`},
			"2 workers/cache off/max_results 2": {func() http.Handler {
				return newClusterFixture(t, 2, "gen", l, nil, func(c *Config) { c.CacheSize = -1 }).coord.Handler()
			}, `,"max_results":2`},
		}
		for name, tier := range tiers {
			t.Run(fmt.Sprintf("seed %d/%s", seed, name), func(t *testing.T) {
				assertServedMatchesOracle(t, tier.handler(), tier.extra, "gen", l, queries)
			})
		}

		// A live log: the same questions of a prefix, then — record by record
		// through the append endpoint, delta invalidation deciding what the
		// cache keeps — of the whole, each time also accepting a partial
		// answer.
		t.Run(fmt.Sprintf("seed %d/live", seed), func(t *testing.T) {
			base, rest := splitLog(t, l)
			h := serverOver(t, Config{Ingest: true, WALDir: t.TempDir()}, "gen", base).Handler()
			for _, extra := range []string{"", `,"partial":true`} {
				assertServedMatchesOracle(t, h, extra, "gen", base, queries)
			}
			if rec := postAppend(t, h, "gen", rest, nil); rec.Code != http.StatusOK {
				t.Fatalf("append: %d: %s", rec.Code, rec.Body)
			}
			for _, extra := range []string{"", `,"partial":true`} {
				assertServedMatchesOracle(t, h, extra, "gen", l, queries)
			}
		})
	}
}

// splitLog cuts l at half its records: the prefix as a log, the rest as an
// append body.
func splitLog(t *testing.T, l *wlog.Log) (*wlog.Log, string) {
	t.Helper()
	records := l.Records()
	base, err := wlog.New(records[:len(records)/2])
	if err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	for _, r := range records[len(records)/2:] {
		line, err := logio.EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		batch.Write(line)
		batch.WriteByte('\n')
	}
	return base, batch.String()
}

// TestCacheServesOnlyWhatItHolds: one entry per query, holding the richest
// shape asked so far. A cheaper mode is read off it; a richer one is a miss
// that evaluates and replaces it — a count-only entry never answers an
// incidents request. On a coordinator an incidents entry holds only the
// bytes its workers sent, and instances, counts and truncated answers are
// read off those.
func TestCacheServesOnlyWhatItHolds(t *testing.T) {
	l, _ := generatedCase(t, 3)
	const q = "Act00 -> Act01"
	want := oracleSet(l, q)
	if want.Len() < 2 {
		t.Fatal("the query has too few incidents to tell the shapes apart")
	}
	type call struct {
		mode   string
		cached bool
		// max is the request's max_results.
		max int
	}
	for name, handler := range map[string]func() http.Handler{
		"single":    func() http.Handler { return serverOver(t, Config{}, "gen", l).Handler() },
		"2 workers": func() http.Handler { return newClusterFixture(t, 2, "gen", l, nil, nil).coord.Handler() },
	} {
		t.Run(name, func(t *testing.T) {
			for _, order := range [][]call{
				{{"count", false, 0}, {"incidents", false, 0}, {"count", true, 0}, {"instances", true, 0}, {"exists", true, 0}, {"incidents", true, 1}},
				{{"incidents", false, 0}, {"instances", true, 0}, {"count", true, 0}, {"incidents", true, want.Len() - 1}, {"incidents", true, 0}},
				{{"instances", false, 0}, {"count", true, 0}, {"exists", true, 0}, {"instances", true, 0}, {"incidents", false, 1}, {"instances", true, 0}, {"incidents", true, 0}},
				{{"exists", false, 0}, {"count", true, 0}, {"instances", false, 0}, {"exists", true, 0}, {"incidents", false, 0}, {"incidents", true, 2}},
			} {
				h := handler()
				misses := 0
				for i, c := range order {
					var got queryResponse
					// Alternate spellings: the entry is keyed on the canonical form.
					query := []string{q, "(Act00)->Act01"}[i%2]
					body := fmt.Sprintf(`{"query":%q,"mode":%q,"max_results":%d}`, query, c.mode, c.max)
					if rec := postQuery(t, h, body, &got); rec.Code != http.StatusOK {
						t.Fatalf("%v call %d: %d: %s", order, i, rec.Code, rec.Body)
					}
					if got.Cached != c.cached {
						t.Errorf("%v call %d (%s): cached = %v, want %v", order, i, c.mode, got.Cached, c.cached)
					}
					if got.Truncated != (c.max > 0) || c.max > 0 && len(got.Incidents) != c.max {
						t.Errorf("%v call %d: truncated %v to %d incidents, asked for %d", order, i, got.Truncated, len(got.Incidents), c.max)
					}
					if !c.cached {
						misses++
					}
					assertAnswerMatches(t, q, c.mode, got, want)
				}
				var m metricsDoc
				getJSON(t, h, "/metrics", &m)
				if int(m.CacheMisses.Load()) != misses || int(m.CacheHits.Load()) != len(order)-misses || m.CacheEntries != 1 {
					t.Errorf("%v: %d hits, %d misses, %d entries; want %d, %d, 1", order, m.CacheHits.Load(), m.CacheMisses.Load(), m.CacheEntries, len(order)-misses, misses)
				}
			}
		})
	}
}

// TestClusterResponsesEqualSingleNode: a coordinator splices its workers'
// answer arrays into its response as they arrived, so what it writes — in
// every mode, truncated anywhere, on a miss and on the hit after it — is a
// single node's response byte for byte, once the completeness object only a
// cluster answer carries is taken out and the one timing masked.
func TestClusterResponsesEqualSingleNode(t *testing.T) {
	clinic, err := wlq.ClinicLog(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	logs := map[string]*wlog.Log{"clinic": clinic}
	queries := map[string][]string{"clinic": hotMixQueries}
	for seed := int64(1); seed <= 6; seed++ {
		name := fmt.Sprintf("gen %d", seed)
		logs[name], queries[name] = generatedCase(t, seed)
	}
	for name, l := range logs {
		t.Run(name, func(t *testing.T) {
			single := serverOver(t, Config{}, "log", l).Handler()
			coord := newClusterFixture(t, 2, "log", l, nil, nil).coord.Handler()
			for _, q := range queries[name] {
				var bodies []string
				for _, mode := range answerModes {
					bodies = append(bodies, fmt.Sprintf(`{"query":%q,"mode":%q}`, q, mode))
				}
				n := oracleSet(l, q).Len()
				for _, max := range []int{1, 2, n - 1} {
					if max > 0 {
						bodies = append(bodies, fmt.Sprintf(`{"query":%q,"max_results":%d}`, q, max))
					}
				}
				// Twice over: misses, then hits on the entry the first round left.
				for round := 0; round < 2; round++ {
					for _, body := range bodies {
						assertSameAsSingleNode(t, single, coord, body)
					}
				}
			}
		})
	}
}

// assertSameAsSingleNode posts body to a single node and to a coordinator
// and requires a 200 from both and the coordinator's response byte for byte,
// once the completeness object only a cluster answer carries is taken out
// and the one timing masked.
func assertSameAsSingleNode(t *testing.T, single, coord http.Handler, body string) {
	t.Helper()
	want, got := postQuery(t, single, body, nil), postQuery(t, coord, body, nil)
	if want.Code != http.StatusOK || got.Code != http.StatusOK {
		t.Fatalf("%s: single node %d, coordinator %d: %s", body, want.Code, got.Code, got.Body)
	}
	// An evaluation on the cluster says what it covered; a hit evaluated
	// nothing.
	reply, completeness, ok := bytes.Cut(got.Body.Bytes(), []byte(`,"completeness":`))
	if ok != !bytes.Contains(reply, []byte(`"cached":true`)) || ok && !bytes.HasSuffix(completeness, []byte("}}\n")) ||
		bytes.Contains(want.Body.Bytes(), []byte(`"completeness"`)) {
		t.Fatalf("%s: completeness where it should not be:\ncoordinator: %s\nsingle node: %s", body, got.Body, want.Body)
	}
	if ok {
		reply = append(reply, "}\n"...)
	}
	if masked := maskVolatile(reply); masked != maskVolatile(want.Body.Bytes()) {
		t.Errorf("%s: the coordinator's response differs from a single node's\ncoordinator: %s\nsingle node: %s", body, masked, maskVolatile(want.Body.Bytes()))
	}
}

// TestClusterTruncationAcrossThePartBoundary: a coordinator holds an answer
// as its two parts' lists and cuts a truncated one from them, so every cut —
// each max_results from 1 to the count, inside the first part, at its end,
// inside the second — is a single node's response byte for byte, on a miss
// with the cache off and on the hits of the entry with it on; and so is
// every cut of an answer whose first part is empty.
func TestClusterTruncationAcrossThePartBoundary(t *testing.T) {
	late := lateLog(t)
	if parts := cluster.Partition(late.WIDs(), 2); parts[0].MaxWID != 5 {
		t.Fatalf("the first part ends at wid %d, want 5", parts[0].MaxWID)
	}
	generated, queries := generatedCase(t, 2)
	cases := map[string]struct {
		l       *wlog.Log
		queries []string
	}{
		"generated":        {generated, queries},
		"first part empty": {late, []string{"A -> Late", "Late", "Late | A"}},
	}
	for name, c := range cases {
		for cacheName, cache := range map[string]int{"cache on": 0, "cache off": -1} {
			t.Run(name+"/"+cacheName, func(t *testing.T) {
				single := serverOver(t, Config{CacheSize: cache}, "log", c.l).Handler()
				coord := newClusterFixture(t, 2, "log", c.l, nil, func(cfg *Config) { cfg.CacheSize = cache }).coord.Handler()
				for _, q := range c.queries {
					for max := 1; max <= oracleSet(c.l, q).Len(); max++ {
						assertSameAsSingleNode(t, single, coord, fmt.Sprintf(`{"query":%q,"max_results":%d}`, q, max))
					}
				}
			})
		}
	}
}

// lateLog is ten instances of which the first five, the first half and
// part, have no Late record.
func lateLog(t *testing.T) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	for wid := uint64(1); wid <= 10; wid++ {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(b.StartWID(wid))
		must(b.Emit(wid, "A", nil, nil))
		if wid > 5 {
			must(b.Emit(wid, "Late", nil, nil))
			must(b.Emit(wid, "Late", nil, nil))
		}
		must(b.End(wid))
	}
	return b.MustBuild()
}

// TestTruncationAcrossScanLists: a single node holds an incidents answer as
// its scan goroutines' lists, one each, and cuts a truncated one from them,
// so every cut — each max_results from 1 to the count — on 1, 2 or 3
// goroutines is the one-goroutine response byte for byte, on a miss with the
// cache off and on the hits of the entry the first miss left with it on; and
// so is every cut of an answer whose first list is empty. An instances
// request read off such an entry (its lists' wids) is a fresh instances
// answer; a query with no incident leaves no entry to read it off.
func TestTruncationAcrossScanLists(t *testing.T) {
	generated, queries := generatedCase(t, 2)
	cases := map[string]struct {
		l       *wlog.Log
		queries []string
	}{
		"generated":        {generated, queries},
		"first list empty": {lateLog(t), []string{"A -> Late", "Late", "Late | A"}},
	}
	for name, c := range cases {
		for cacheName, cache := range map[string]int{"cache on": 0, "cache off": -1} {
			for workers := 1; workers <= 3; workers++ {
				t.Run(fmt.Sprintf("%s/%s/%d goroutines", name, cacheName, workers), func(t *testing.T) {
					one := serverOver(t, Config{CacheSize: cache, Workers: 1}, "log", c.l).Handler()
					s := serverOver(t, Config{CacheSize: cache, Workers: 3}, "log", c.l)
					fresh := serverOver(t, Config{CacheSize: -1}, "log", c.l).Handler()
					for _, q := range c.queries {
						n := oracleSet(c.l, q).Len()
						for max := 1; max <= n; max++ {
							body := fmt.Sprintf(`{"query":%q,"max_results":%d,"workers":%d}`, q, max, workers)
							want, got := postQuery(t, one, body, nil), postQuery(t, s.Handler(), body, nil)
							if want.Code != http.StatusOK || got.Code != http.StatusOK || maskVolatile(got.Body.Bytes()) != maskVolatile(want.Body.Bytes()) {
								t.Fatalf("%s: %d goroutines answered %d\n%s\none goroutine %d\n%s", body, workers, got.Code, got.Body, want.Code, want.Body)
							}
						}
						var cached, want queryResponse
						body := fmt.Sprintf(`{"query":%q,"mode":"instances"}`, q)
						postQuery(t, s.Handler(), body, &cached)
						postQuery(t, fresh, body, &want)
						if cached.Cached != (cache == 0 && n > 0) || cached.Count != want.Count || !slices.Equal(cached.Instances, want.Instances) {
							t.Errorf("%s: instances %v (count %d, cached %v), fresh %v (count %d)", q, cached.Instances, cached.Count, cached.Cached, want.Instances, want.Count)
						}
					}
					if cache == 0 {
						widest := 0
						for el := s.cache.ll.Front(); el != nil; el = el.Next() {
							widest = max(widest, len(el.Value.(*lruItem).entry.res.Wire))
						}
						if widest != workers {
							t.Errorf("the entries hold up to %d lists, want %d", widest, workers)
						}
					}
				})
			}
		}
	}
}

// TestPartialAnswersSumTheSurvivingParts: with part of the log lost and
// "partial": true, every mode answers 206 with the surviving parts' sum and
// concatenation — the oracle restricted to the wids outside the excluded
// intervals — under the same completeness object: instances poisoned on a
// single node, static or live before and after an append, and a dead worker
// on a cluster.
func TestPartialAnswersSumTheSurvivingParts(t *testing.T) {
	l, queries := generatedCase(t, 5)
	base, rest := splitLog(t, l)
	// The fault hook below is process-wide: the oracle, and the scans that
	// find which instances each query reads, run before it is set.
	whole, prefix := make(map[string]*incident.Set), make(map[string]*incident.Set)
	readWhole, readPrefix := make(map[string][]uint64), make(map[string][]uint64)
	for _, q := range queries {
		whole[q], prefix[q] = oracleSet(l, q), oracleSet(base, q)
		readWhole[q], readPrefix[q] = evaluatedBy(t, l, q), evaluatedBy(t, base, q)
	}
	surviving := func(oracle *incident.Set, lost queryTail) *incident.Set {
		var kept []incident.Incident
		for _, o := range oracle.Incidents() {
			in := false
			for _, f := range lost.Completeness.Failures {
				in = in || o.WID() >= f.WIDMin && o.WID() <= f.WIDMax
			}
			if !in {
				kept = append(kept, o)
			}
		}
		return incident.NewSet(kept...)
	}
	// A fault can only be injected into an instance a scan evaluates, so each
	// query has its own poisoned instances: the second, third and last of
	// those it reads in the prefix, and the last of those it reads in the
	// whole log, so that the live log's append touches poisoned instances as
	// well as clean ones. An answer names one failure per run of poisoned
	// instances it reads, adjacent in the log it was asked of.
	poisoned := make(map[string]map[uint64]bool)
	for _, q := range queries {
		poisoned[q] = make(map[uint64]bool)
		for _, i := range []int{1, 2, len(readPrefix[q]) - 1} {
			if i >= 0 && i < len(readPrefix[q]) {
				poisoned[q][readPrefix[q][i]] = true
			}
		}
		if n := len(readWhole[q]); n > 0 {
			poisoned[q][readWhole[q][n-1]] = true
		}
	}
	runs := func(q string, wids, read []uint64) (n int) {
		lost := func(w uint64) bool {
			_, ok := slices.BinarySearch(read, w)
			return ok && poisoned[q][w]
		}
		for i, w := range wids {
			if lost(w) && (i == 0 || !lost(wids[i-1])) {
				n++
			}
		}
		return n
	}
	// check asks every query in every mode, poisoning its instances when
	// poison is set; failures is the number of excluded intervals its
	// answers must name, and a query that loses none is answered in full.
	check := func(t *testing.T, h http.Handler, oracle map[string]*incident.Set, poison bool, failures func(q string) int) {
		t.Helper()
		for _, q := range queries {
			if poison {
				eval.SetEvalHook(func(wid uint64) {
					if poisoned[q][wid] {
						panic("injected instance fault")
					}
				})
			}
			var completeness string
			for _, mode := range answerModes {
				var got queryResponse
				body := fmt.Sprintf(`{"query":%q,"mode":%q,"partial":true}`, q, mode)
				rec := postQuery(t, h, body, nil)
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				if failures(q) == 0 {
					if rec.Code != http.StatusOK || got.Partial || got.Completeness != nil {
						t.Fatalf("%q %s: no instance it reads is lost, yet status %d, partial=%v, completeness %+v", q, mode, rec.Code, got.Partial, got.Completeness)
					}
					assertAnswerMatches(t, q, mode, got, oracle[q])
					continue
				}
				if rec.Code != http.StatusPartialContent {
					t.Fatalf("%q %s: status %d, want 206: %s", q, mode, rec.Code, rec.Body)
				}
				if !got.Partial || got.Completeness == nil || len(got.Completeness.Failures) != failures(q) || got.Cached {
					t.Fatalf("%q %s: partial=%v cached=%v completeness %+v", q, mode, got.Partial, got.Cached, got.Completeness)
				}
				assertAnswerMatches(t, q, mode, got, surviving(oracle[q], got.queryTail))
				doc := maskVolatile([]byte(fmt.Sprintf("%+v", *got.Completeness)))
				if completeness == "" {
					completeness = doc
				} else if doc != completeness {
					t.Errorf("%q %s: completeness %s, the incidents answer's was %s", q, mode, doc, completeness)
				}
			}
			eval.SetEvalHook(nil)
		}
	}
	t.Cleanup(func() { eval.SetEvalHook(nil) })
	bw, wids := base.WIDs(), l.WIDs()
	wholeRuns := func(q string) int { return runs(q, wids, readWhole[q]) }
	prefixRuns := func(q string) int { return runs(q, bw, readPrefix[q]) }
	if n := wholeRuns(queries[0]); n == 0 {
		t.Fatalf("%s loses no instance: the test poisons nothing it reads", queries[0])
	}
	t.Run("shards", func(t *testing.T) {
		// A single node scanning in three chunks.
		check(t, serverOver(t, Config{Workers: 3}, "gen", l).Handler(), whole, true, wholeRuns)
	})
	t.Run("live", func(t *testing.T) {
		h := serverOver(t, Config{Ingest: true, WALDir: t.TempDir()}, "gen", base).Handler()
		check(t, h, prefix, true, prefixRuns)
		if rec := postAppend(t, h, "gen", rest, nil); rec.Code != http.StatusOK {
			t.Fatalf("append: %d: %s", rec.Code, rec.Body)
		}
		check(t, h, whole, true, wholeRuns)
	})
	t.Run("workers", func(t *testing.T) {
		// One attempt and a breaker that stays shut: every request meets the
		// dead worker the same way.
		f := newClusterFixture(t, 2, "gen", l, func(c *cluster.Config) { c.MaxAttempts, c.BreakerThreshold = 1, 1000 }, nil)
		f.workers[1].Close()
		check(t, f.coord.Handler(), whole, false, func(string) int { return 1 })
	})
}

// evaluatedBy is the instances a single node's scan of q over l evaluates,
// ascending, by the fault hook: those the plan's required-atom formula
// admits.
func evaluatedBy(t *testing.T, l *wlog.Log, q string) []uint64 {
	t.Helper()
	var read []uint64
	eval.SetEvalHook(func(wid uint64) { read = append(read, wid) })
	defer eval.SetEvalHook(nil)
	cs := colstore.Build(l)
	if _, err := eval.New(cs, eval.Options{}).AnswerCtx(context.Background(), pattern.MustParse(q), cs.WIDs(), 1, eval.ShapeCount, nil); err != nil {
		t.Fatal(err)
	}
	return read
}
