package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"wlq"
	"wlq/internal/cluster"
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
				if int(m.CacheMisses) != misses || int(m.CacheHits) != len(order)-misses || m.CacheEntries != 1 {
					t.Errorf("%v: %d hits, %d misses, %d entries; want %d, %d, 1", order, m.CacheHits, m.CacheMisses, m.CacheEntries, len(order)-misses, misses)
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
						want, got := postQuery(t, single, body, nil), postQuery(t, coord, body, nil)
						if want.Code != http.StatusOK || got.Code != http.StatusOK {
							t.Fatalf("%s: single node %d, coordinator %d: %s", body, want.Code, got.Code, got.Body)
						}
						// An evaluation on the cluster says what it covered; a hit
						// evaluated nothing.
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
				}
			}
		})
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
	// The fault hook below is process-wide: the oracle runs before it is set.
	whole, prefix := make(map[string]*incident.Set), make(map[string]*incident.Set)
	for _, q := range queries {
		whole[q], prefix[q] = oracleSet(l, q), oracleSet(base, q)
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
	// check asks every query in every mode; failures is the number of
	// excluded intervals each answer must name.
	check := func(t *testing.T, h http.Handler, oracle map[string]*incident.Set, failures int) {
		t.Helper()
		for _, q := range queries {
			var completeness string
			for _, mode := range answerModes {
				var got queryResponse
				body := fmt.Sprintf(`{"query":%q,"mode":%q,"partial":true}`, q, mode)
				rec := postQuery(t, h, body, nil)
				if rec.Code != http.StatusPartialContent {
					t.Fatalf("%q %s: status %d, want 206: %s", q, mode, rec.Code, rec.Body)
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Partial || got.Completeness == nil || len(got.Completeness.Failures) != failures || got.Cached {
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
		}
	}
	// Poison the prefix's second, third and last instances and the log's
	// last one, so that the live log's append touches poisoned instances as
	// well as clean ones. An answer names one failure per run of poisoned
	// instances adjacent in the log it was asked of.
	bw, wids := base.WIDs(), l.WIDs()
	poisoned := map[uint64]bool{bw[1]: true, bw[2]: true, bw[len(bw)-1]: true, wids[len(wids)-1]: true}
	runs := func(wids []uint64) (n int) {
		for i, w := range wids {
			if poisoned[w] && (i == 0 || !poisoned[wids[i-1]]) {
				n++
			}
		}
		return n
	}
	poison := func(t *testing.T) {
		eval.SetEvalHook(func(wid uint64) {
			if poisoned[wid] {
				panic("injected instance fault")
			}
		})
		t.Cleanup(func() { eval.SetEvalHook(nil) })
	}
	t.Run("shards", func(t *testing.T) {
		// A single node scanning in three chunks.
		poison(t)
		check(t, serverOver(t, Config{Workers: 3}, "gen", l).Handler(), whole, runs(wids))
	})
	t.Run("live", func(t *testing.T) {
		h := serverOver(t, Config{Ingest: true, WALDir: t.TempDir()}, "gen", base).Handler()
		poison(t)
		check(t, h, prefix, runs(bw))
		if rec := postAppend(t, h, "gen", rest, nil); rec.Code != http.StatusOK {
			t.Fatalf("append: %d: %s", rec.Code, rec.Body)
		}
		check(t, h, whole, runs(wids))
	})
	t.Run("workers", func(t *testing.T) {
		// One attempt and a breaker that stays shut: every request meets the
		// dead worker the same way.
		f := newClusterFixture(t, 2, "gen", l, func(c *cluster.Config) { c.MaxAttempts, c.BreakerThreshold = 1, 1000 }, nil)
		f.workers[1].Close()
		check(t, f.coord.Handler(), whole, 1)
	})
}
