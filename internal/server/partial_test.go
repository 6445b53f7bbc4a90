package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wlq"
	"wlq/internal/cluster"
	"wlq/internal/core/eval"
)

// Partial answers on a single node: every workflow instance is its own
// failure domain, an instance whose evaluation panics is excluded from the
// answer, and the request's "partial" decides what that means — a 206 whose
// completeness object names exactly the excluded wids, or (strict, the
// default) the 500 any evaluation panic is. A sharded query here is one
// whose scan the server splits into contiguous wid chunks, one goroutine
// each. The faults ride on the eval fault hook like the rest of the chaos
// suite; the CI chaos steps select these tests by the Chaos, Shard and
// Partial in their names.

// shardedChaosServer serves a 16-instance chaos log on a plain server that
// scans it in 4 chunks: wids 1–4, 5–8, 9–12, 13–16.
func shardedChaosServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Workers: 4})
	if err := s.AddLog("chaos", "builtin:chaos", chaosLog(t, 16, 3)); err != nil {
		t.Fatal(err)
	}
	return s
}

// poisonWIDs makes every evaluation of the given instances panic until the
// test ends.
func poisonWIDs(t *testing.T, wids ...uint64) {
	t.Helper()
	poisoned := make(map[uint64]bool, len(wids))
	for _, w := range wids {
		poisoned[w] = true
	}
	eval.SetEvalHook(func(wid uint64) {
		if poisoned[wid] {
			panic("injected instance fault")
		}
	})
	t.Cleanup(func() { eval.SetEvalHook(nil) })
}

func TestChaosPartialStrictModeIs500(t *testing.T) {
	s := shardedChaosServer(t)
	poisonWIDs(t, 13, 14, 15, 16)

	rec := postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B"}`, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("strict status %d, want 500: %s", rec.Code, rec.Body)
	}
	doc := decodeError(t, rec)
	if doc.IncidentID == "" || doc.Completeness != nil {
		t.Fatalf("strict 500 envelope: incident %q, completeness %+v; want an incident id and no completeness", doc.IncidentID, doc.Completeness)
	}
	if s.cache.len() != 0 {
		t.Fatalf("a failed query entered the cache (%d entries)", s.cache.len())
	}
}

func TestChaosShardFaultDegradedModeIs206(t *testing.T) {
	s := shardedChaosServer(t)
	// Three runs of instances adjacent in the log — 3–4, 9, 16 — in three
	// of the four chunks.
	poisonWIDs(t, 3, 4, 9, 16)

	rec := postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("degraded partial status %d, want 206: %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode 206 body: %v\n%s", err, rec.Body)
	}
	if !resp.Partial || resp.Completeness == nil || resp.Completeness.Complete {
		t.Fatalf("206 response not marked partial: %+v", resp)
	}
	// Every instance has the same 6 A -> B incidents: 12 instances answer.
	if resp.Count != 12*6 || len(resp.Incidents) != resp.Count {
		t.Fatalf("count %d with %d incidents, want the 12 surviving instances' 72", resp.Count, len(resp.Incidents))
	}
	for _, inc := range resp.Incidents {
		if inc.WID == 3 || inc.WID == 4 || inc.WID == 9 || inc.WID == 16 {
			t.Fatalf("incident of an excluded instance in the partial answer: %+v", inc)
		}
	}
	c := resp.Completeness
	if c.Shards != 16 || c.Attempted != 16 || c.Succeeded != 12 || c.Failed != 4 || c.ExcludedWIDs != 4 || c.Skipped != 0 || c.Retries != 0 {
		t.Fatalf("completeness = %+v, want 12 of 16 instances with 4 excluded", c)
	}
	want := []cluster.ShardOutcome{
		{Shard: 2, WIDMin: 3, WIDMax: 4, WIDs: 2, Attempts: 1},
		{Shard: 8, WIDMin: 9, WIDMax: 9, WIDs: 1, Attempts: 1},
		{Shard: 15, WIDMin: 16, WIDMax: 16, WIDs: 1, Attempts: 1},
	}
	if len(c.Failures) != len(want) {
		t.Fatalf("failures = %+v, want %+v", c.Failures, want)
	}
	for i, f := range c.Failures {
		if !strings.Contains(f.Cause, "internal panic (incident ") || !strings.Contains(f.Cause, "injected instance fault") {
			t.Errorf("failure %d cause %q does not name the panic and its incident id", i, f.Cause)
		}
		f.Cause = ""
		if f != want[i] {
			t.Errorf("failure %d = %+v, want %+v", i, f, want[i])
		}
	}
}

// TestChaosPartialResultNeverCached is the cache-safety regression: a
// partial result must not be served from the cache after the fault is gone —
// "no incidents in wids 13–16" and "wids 13–16 were not evaluated" are
// different answers.
func TestChaosPartialResultNeverCached(t *testing.T) {
	s := shardedChaosServer(t)
	poisonWIDs(t, 13, 14, 15, 16)

	var partial queryResponse
	rec := postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
		t.Fatal(err)
	}
	if s.cache.len() != 0 {
		t.Fatalf("partial result entered the cache (%d entries)", s.cache.len())
	}

	// Fault gone: the same query must be re-evaluated in full, not answered
	// from a poisoned cache entry.
	eval.SetEvalHook(nil)
	var healed queryResponse
	if rec := postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, &healed); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery status %d: %s", rec.Code, rec.Body)
	}
	if healed.Cached {
		t.Fatal("post-recovery response claims a cache hit: the partial result was cached")
	}
	if healed.Partial || healed.Completeness != nil || healed.Count <= partial.Count {
		t.Fatalf("post-recovery result not complete: partial=%v completeness=%+v count=%d (was %d)",
			healed.Partial, healed.Completeness, healed.Count, partial.Count)
	}
	// And the complete result now IS cached.
	var again queryResponse
	postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, &again)
	if !again.Cached {
		t.Fatal("complete post-recovery result was not cached")
	}
}

func TestChaosShardedMetricsCounters(t *testing.T) {
	s := shardedChaosServer(t)
	poisonWIDs(t, 13, 14, 15, 16)
	postQuery(t, s.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, nil)

	var doc metricsDoc
	if rec := getJSON(t, s.Handler(), "/metrics", &doc); rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if doc.PartialResults.Load() != 1 || doc.WIDsExcluded.Load() != 4 || doc.PanicsRecovered.Load() != 4 || doc.InstancesEvaluated.Load() != 12 {
		t.Fatalf("counters = partial=%d excluded=%d panics=%d instances=%d, want 1/4/4/12",
			doc.PartialResults.Load(), doc.WIDsExcluded.Load(), doc.PanicsRecovered.Load(), doc.InstancesEvaluated.Load())
	}
	// The prometheus exposition carries the same families.
	body := getJSON(t, s.Handler(), "/metrics?format=prometheus", nil).Body.String()
	for _, family := range []string{
		"wlq_partial_results_total 1",
		"wlq_wids_excluded_total 4",
		"wlq_panics_recovered_total 4",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("prometheus exposition missing %q", family)
		}
	}
}

// TestShardedQueryCompleteMatchesUnsharded: with no fault, a query scanned
// in four chunks answers exactly what a serial scan does — complete, with no
// completeness object, and cacheable — whether or not it accepts a partial
// answer.
func TestShardedQueryCompleteMatchesUnsharded(t *testing.T) {
	plain := newChaosServer(t, Config{Workers: 1}, 16, 3)
	sharded := shardedChaosServer(t).Handler()

	var want, got queryResponse
	if rec := postQuery(t, plain, `{"log":"chaos","query":"A -> B"}`, &want); rec.Code != http.StatusOK {
		t.Fatalf("serial: %d: %s", rec.Code, rec.Body)
	}
	if rec := postQuery(t, sharded, `{"log":"chaos","query":"A -> B","partial":true}`, &got); rec.Code != http.StatusOK {
		t.Fatalf("sharded: %d: %s", rec.Code, rec.Body)
	}
	if digestOf(got) != digestOf(want) || got.Partial || got.Completeness != nil {
		t.Fatalf("sharded answer %s (partial=%v, completeness %+v), serial %s", digestOf(got), got.Partial, got.Completeness, digestOf(want))
	}
	var again queryResponse
	postQuery(t, sharded, `{"log":"chaos","query":"A -> B"}`, &again)
	if !again.Cached {
		t.Fatal("complete sharded result was not cached")
	}
}

// TestChaosShardFaultStrictModeIs502: on a coordinator a shard is a worker's
// part, and a lost one in strict mode (the default) is a 502 whose envelope
// names the lost interval — what "partial": true would have excluded.
func TestChaosShardFaultStrictModeIs502(t *testing.T) {
	l := chaosLog(t, 16, 3)
	f := newClusterFixture(t, 2, "chaos", l, func(c *cluster.Config) { c.MaxAttempts = 1 }, nil)
	f.workers[1].Close()

	rec := postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"A -> B"}`, nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("strict status %d, want 502: %s", rec.Code, rec.Body)
	}
	c := decodeError(t, rec).Completeness
	if c == nil || c.Complete || c.Succeeded != 1 || c.Failed != 1 || c.ExcludedWIDs != 8 ||
		len(c.Failures) != 1 || c.Failures[0].WIDMin != 9 || c.Failures[0].WIDMax != 16 || c.Failures[0].Worker != f.urls[1] {
		t.Fatalf("completeness = %+v, want worker 2's wids 9–16 named lost", c)
	}
}

// TestChaosRetryAfterClamp covers the 429 backoff hint: sub-second advisory
// delays must not truncate to "Retry-After: 0" (an instant-retry stampede);
// the value is ceil'd to whole seconds, floored at 1, and jittered by at
// most one extra second.
func TestChaosRetryAfterClamp(t *testing.T) {
	cases := []struct {
		d        time.Duration
		min, max int
	}{
		{0, 1, 2},
		{time.Millisecond, 1, 2},
		{999 * time.Millisecond, 1, 2},
		{time.Second, 1, 2},
		{1500 * time.Millisecond, 2, 3},
		{5 * time.Second, 5, 6},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			got := retryAfterSeconds(c.d)
			if got < c.min || got > c.max {
				t.Fatalf("retryAfterSeconds(%v) = %d, want in [%d, %d]", c.d, got, c.min, c.max)
			}
		}
	}
}

// TestSkippedInstanceIsNeverEvaluated: a scan evaluates only the instances
// its plan's required-atom formula admits. Figure 3's wid 3 has no
// GetReimburse, so a fault injected into it never fires for a plan that
// needs one, and the answer is complete, 200, in every mode, partial or
// strict; a plan that reads wid 3 meets the fault.
func TestSkippedInstanceIsNeverEvaluated(t *testing.T) {
	h := newTestServer(t, Config{Workers: 2, CacheSize: -1}).Handler()
	const q = "GetRefer -> GetReimburse"
	want := oracleSet(wlq.ClinicFig3(), q) // before the process-wide hook is set
	const skipped = 3
	var fired atomic.Int32
	eval.SetEvalHook(func(wid uint64) {
		if wid == skipped {
			fired.Add(1)
			panic("injected instance fault")
		}
	})
	t.Cleanup(func() { eval.SetEvalHook(nil) })
	for _, mode := range answerModes {
		for _, partial := range []bool{false, true} {
			var got queryResponse
			rec := postQuery(t, h, fmt.Sprintf(`{"log":"fig3","query":%q,"mode":%q,"partial":%v}`, q, mode, partial), nil)
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusOK || got.Partial || got.Completeness != nil {
				t.Fatalf("%s, partial %v: status %d, partial=%v, completeness %+v; want a complete 200", mode, partial, rec.Code, got.Partial, got.Completeness)
			}
			assertAnswerMatches(t, q, mode, got, want)
		}
	}
	if n := fired.Load(); n != 0 {
		t.Fatalf("the skipped instance was evaluated %d times", n)
	}
	if rec := postQuery(t, h, `{"log":"fig3","query":"GetRefer -> !GetReimburse","partial":true}`, nil); rec.Code != http.StatusPartialContent || fired.Load() == 0 {
		t.Fatalf("a plan reading wid %d: status %d, fault fired %d times; want 206", skipped, rec.Code, fired.Load())
	}
}
