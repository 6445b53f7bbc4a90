package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"wlq/internal/cluster"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/gen"
	"wlq/internal/logio"
	"wlq/internal/shard"
	"wlq/internal/wlog"
)

// The served differential: whatever tier answers — a single node, in-process
// shards, a cluster, a live log between appends, the cache in any state — and
// whichever mode is asked, the response is held to one oracle, naive
// Algorithm 1 over the row index.

// oracleSet is naive Algorithm 1's incL(q) over l.
func oracleSet(l *wlog.Log, q string) *incident.Set {
	return eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive}).Eval(pattern.MustParse(q))
}

// assertAnswerMatches holds one decoded 200 or 206 response of the given mode
// to want: an exact count and exists in every mode, the instance list and the
// incidents in theirs, and no array in a mode that has none.
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
// richer-after-cheaper and cheaper-after-richer comes up — and requires the
// oracle's answer.
func assertServedMatchesOracle(t *testing.T, h http.Handler, name string, l *wlog.Log, queries []string) {
	t.Helper()
	for i, q := range queries {
		want := oracleSet(l, q)
		for j := range answerModes {
			mode := answerModes[(i+j)%len(answerModes)]
			var got queryResponse
			body := fmt.Sprintf(`{"log":%q,"query":%q,"mode":%q}`, name, q, mode)
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
// first are derived from an entry, or replace one) and off.
func TestServedModesMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		l, queries := generatedCase(t, seed)
		tiers := map[string]func() http.Handler{
			"single":       func() http.Handler { return serverOver(t, Config{}, "gen", l).Handler() },
			"single/naive": func() http.Handler { return serverOver(t, Config{Strategy: eval.StrategyNaive}, "gen", l).Handler() },
			"cache off":    func() http.Handler { return serverOver(t, Config{CacheSize: -1}, "gen", l).Handler() },
			"shards 3":     func() http.Handler { return serverOver(t, Config{Shards: 3}, "gen", l).Handler() },
			"2 workers":    func() http.Handler { return newClusterFixture(t, 2, "gen", l, nil, nil).coord.Handler() },
			"2 workers/cache off": func() http.Handler {
				return newClusterFixture(t, 2, "gen", l, nil, func(c *Config) { c.CacheSize = -1 }).coord.Handler()
			},
		}
		for name, tier := range tiers {
			t.Run(fmt.Sprintf("seed %d/%s", seed, name), func(t *testing.T) {
				assertServedMatchesOracle(t, tier(), "gen", l, queries)
			})
		}

		// A live log: the same questions of a prefix, then — record by record
		// through the append endpoint, delta invalidation deciding what the
		// cache keeps — of the whole.
		t.Run(fmt.Sprintf("seed %d/live", seed), func(t *testing.T) {
			records := l.Records()
			base, err := wlog.New(records[:len(records)/2])
			if err != nil {
				t.Fatal(err)
			}
			h := serverOver(t, Config{Ingest: true, WALDir: t.TempDir()}, "gen", base).Handler()
			assertServedMatchesOracle(t, h, "gen", base, queries)
			var batch bytes.Buffer
			for _, r := range records[len(records)/2:] {
				line, err := logio.EncodeRecord(r)
				if err != nil {
					t.Fatal(err)
				}
				batch.Write(line)
				batch.WriteByte('\n')
			}
			if rec := postAppend(t, h, "gen", batch.String(), nil); rec.Code != http.StatusOK {
				t.Fatalf("append: %d: %s", rec.Code, rec.Body)
			}
			assertServedMatchesOracle(t, h, "gen", l, queries)
		})
	}
}

// TestCacheServesOnlyWhatItHolds: one entry per query, holding the richest
// shape asked so far. A cheaper mode is read off it; a richer one is a miss
// that evaluates and replaces it — a count-only entry never answers an
// incidents request.
func TestCacheServesOnlyWhatItHolds(t *testing.T) {
	l, _ := generatedCase(t, 3)
	const q = "Act00 -> Act01"
	want := oracleSet(l, q)
	if want.Len() == 0 {
		t.Fatal("the query has no incident to tell the shapes apart")
	}
	type call struct {
		mode   string
		cached bool
	}
	for _, order := range [][]call{
		{{"count", false}, {"incidents", false}, {"count", true}, {"instances", true}, {"exists", true}},
		{{"incidents", false}, {"instances", true}, {"count", true}, {"incidents", true}},
		{{"instances", false}, {"count", true}, {"exists", true}, {"instances", true}, {"incidents", false}, {"instances", true}},
		{{"exists", false}, {"count", true}, {"instances", false}, {"exists", true}, {"incidents", false}, {"incidents", true}},
	} {
		s := serverOver(t, Config{}, "gen", l)
		h := s.Handler()
		misses := 0
		for i, c := range order {
			var got queryResponse
			// Alternate spellings: the entry is keyed on the canonical form.
			query := []string{q, "(Act00)->Act01"}[i%2]
			if rec := postQuery(t, h, fmt.Sprintf(`{"query":%q,"mode":%q}`, query, c.mode), &got); rec.Code != http.StatusOK {
				t.Fatalf("%v call %d: %d: %s", order, i, rec.Code, rec.Body)
			}
			if got.Cached != c.cached {
				t.Errorf("%v call %d (%s): cached = %v, want %v", order, i, c.mode, got.Cached, c.cached)
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
}

// TestPartialAnswersSumTheSurvivingParts: with one part lost and "partial":
// true, every mode answers 206 with the surviving parts' sum and
// concatenation — the oracle restricted to the wids outside the excluded
// interval — under the same completeness object.
func TestPartialAnswersSumTheSurvivingParts(t *testing.T) {
	l, queries := generatedCase(t, 5)
	// The fault hook below is process-wide: the oracle runs before it is set.
	whole := make(map[string]*incident.Set)
	for _, q := range queries {
		whole[q] = oracleSet(l, q)
	}
	surviving := func(q string, lost queryTail) *incident.Set {
		f := lost.Completeness.Failures[0]
		var kept []incident.Incident
		for _, o := range whole[q].Incidents() {
			if o.WID() < f.WIDMin || o.WID() > f.WIDMax {
				kept = append(kept, o)
			}
		}
		return incident.NewSet(kept...)
	}
	check := func(t *testing.T, h http.Handler) {
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
				if !got.Partial || got.Completeness == nil || len(got.Completeness.Failures) != 1 || got.Cached {
					t.Fatalf("%q %s: partial=%v cached=%v completeness %+v", q, mode, got.Partial, got.Cached, got.Completeness)
				}
				assertAnswerMatches(t, q, mode, got, surviving(q, got.queryTail))
				doc := maskVolatile([]byte(fmt.Sprintf("%+v", *got.Completeness)))
				if completeness == "" {
					completeness = doc
				} else if doc != completeness {
					t.Errorf("%q %s: completeness %s, the incidents answer's was %s", q, mode, doc, completeness)
				}
			}
		}
	}
	t.Run("shards", func(t *testing.T) {
		lostFrom := shard.Partition(l.WIDs(), 3)[2].MinWID
		eval.SetEvalHook(func(wid uint64) {
			if wid >= lostFrom {
				panic("injected shard fault")
			}
		})
		defer eval.SetEvalHook(nil)
		check(t, serverOver(t, Config{Shards: 3, ShardAttempts: 1, BreakerThreshold: 1000}, "gen", l).Handler())
	})
	t.Run("workers", func(t *testing.T) {
		// One attempt and a breaker that stays shut: every request meets the
		// dead worker the same way.
		f := newClusterFixture(t, 2, "gen", l, func(c *cluster.Config) { c.MaxAttempts, c.BreakerThreshold = 1, 1000 }, nil)
		f.workers[1].Close()
		check(t, f.coord.Handler())
	})
}
