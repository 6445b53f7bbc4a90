package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/faultinject"
	"wlq/internal/flightrec"
	"wlq/internal/gen"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// Distributed chaos and equivalence suite. Workers are real worker-mode
// Servers behind real loopback listeners (the coordinator speaks HTTP, not
// handlers), so every fault here — a killed process, a flaky transport, a
// blackholed request — exercises the same code paths production does. The
// CI chaos steps (.github/workflows/ci.yml) select these tests by the Chaos,
// Fault and Cluster in their names.

// startWorker serves l under the given name on a worker-mode Server bound to
// a real loopback address.
func startWorker(t *testing.T, name string, l *wlog.Log) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{WorkerMode: true, FlightRecorderSize: -1})
	if err := s.AddLog(name, "builtin:"+name, l); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// clusterFixture is a coordinator over n in-process workers, all serving the
// same log under the same name.
type clusterFixture struct {
	coord   *Server
	workers []*httptest.Server
	wsrv    []*Server
	urls    []string
}

// newClusterFixture builds the fleet. mut, when non-nil, adjusts the
// coordinator's cluster config (transport faults, timeouts, attempt caps)
// after the worker URLs are filled in; coordMut adjusts the coordinator's
// server config. Backoff sleeps are disabled by default — chaos tests
// assert behavior, not wall-clock delays.
func newClusterFixture(t *testing.T, n int, name string, l *wlog.Log, mut func(*cluster.Config), coordMut func(*Config)) *clusterFixture {
	t.Helper()
	f := &clusterFixture{}
	for i := 0; i < n; i++ {
		s, ts := startWorker(t, name, l)
		f.wsrv = append(f.wsrv, s)
		f.workers = append(f.workers, ts)
		f.urls = append(f.urls, ts.URL)
	}
	ccfg := cluster.Config{Workers: f.urls, Sleep: func(time.Duration) {}}
	if mut != nil {
		mut(&ccfg)
	}
	cfg := Config{Cluster: &ccfg, ProbeInterval: -1}
	if coordMut != nil {
		coordMut(&cfg)
	}
	f.coord = New(cfg)
	if err := f.coord.AddLog(name, "builtin:"+name, l); err != nil {
		t.Fatal(err)
	}
	return f
}

// The 13-query operator matrix from the cross-backend equivalence suite
// (internal/colstore), here driven end to end over HTTP against 1, 2 and 4
// workers: distribution must be a physical switch, never a semantic one.
var clusterEquivalenceQueries = []string{
	"Act00 . Act01",
	"Act00 -> Act02",
	"Act01 | Act03",
	"Act00 & Act01",
	"(Act00 . Act01) -> Act02",
	"(Act00 -> Act01) | (Act00 -> Act02)",
	"(Act00 | Act01) & Act02",
	"Act00 -> (Act01 & (Act02 | Act03))",
	"!Act00 . Act01",
	"Act00 -> NoSuchActivity",
	"!NoSuchActivity & Act01",
	"START . Act00",
	"Act00 -> END",
}

func clusterEquivalenceLogs() map[string]*wlog.Log {
	return map[string]*wlog.Log{
		"uniform": gen.MustRandomLog(gen.LogParams{
			Instances: 40, MeanLength: 20, Seed: 11,
		}),
		"skewed": gen.MustRandomLog(gen.LogParams{
			Instances: 25, MeanLength: 30, Skew: 1.3, CompleteFraction: 0.6, Seed: 23,
		}),
	}
}

// digestOf reduces a 200 response to the fields that define the answer.
func digestOf(resp queryResponse) string {
	b, _ := json.Marshal(struct {
		Count     int           `json:"count"`
		Incidents []incidentDoc `json:"incidents"`
	}{resp.Count, resp.Incidents})
	return string(b)
}

// TestClusterEquivalence: every fleet size, with and without the rewriter,
// answers exactly what naive Algorithm 1 over the row index answers — the
// workers evaluate over the columnar store, so this is also the
// cluster-over-columnar check.
func TestClusterEquivalence(t *testing.T) {
	for logName, l := range clusterEquivalenceLogs() {
		for _, workers := range []int{1, 2, 4} {
			f := newClusterFixture(t, workers, "eq", l, nil, nil)
			ch := f.coord.Handler()
			for _, q := range clusterEquivalenceQueries {
				want := oracleDigest(l, q)
				for _, noOpt := range []bool{false, true} {
					name := fmt.Sprintf("%s/%dw/%s/no_optimize=%v", logName, workers, q, noOpt)
					body := fmt.Sprintf(`{"log":"eq","query":%q,"no_optimize":%v}`, q, noOpt)
					var got queryResponse
					rec := postQuery(t, ch, body, &got)
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: cluster status %d: %s", name, rec.Code, rec.Body)
					}
					if digestOf(got) != want {
						t.Fatalf("%s: cluster answer diverges from naive Algorithm 1\n cluster: %s\n  oracle: %s",
							name, digestOf(got), want)
					}
					if got.Completeness == nil || !got.Completeness.Complete {
						t.Fatalf("%s: healthy cluster result not marked complete: %+v", name, got.Completeness)
					}
				}
			}
		}
	}
}

// gappedLog renumbers a generated log's instances 1, 2, 3, … to 6, 9, 14, …:
// wid intervals that are not index intervals.
func gappedLog(instances int, seed int64) *wlog.Log {
	recs := gen.MustRandomLog(gen.LogParams{Instances: instances, MeanLength: 12, Seed: seed}).Records()
	for i := range recs {
		recs[i].WID = recs[i].WID*recs[i].WID + 5
	}
	return wlog.MustNew(recs)
}

// TestClusterPlacementDifferential holds range placement to naive Algorithm 1
// where a contiguous split has edges: gapped wid numbering, fewer wids than
// workers, one wid, no wids — at every fleet size. Then, with one worker
// killed, the 206 must name one exact interval: it holds excluded_wids
// members of the log, and the answer is the oracle's minus that interval.
func TestClusterPlacementDifferential(t *testing.T) {
	logs := map[string]*wlog.Log{
		"gapped":             gappedLog(30, 5),
		"fewer than workers": gappedLog(3, 6),
		"one wid":            gappedLog(1, 7),
		"empty":              wlog.MustNew(nil),
	}
	const victim = 1 // the second worker dies after the healthy pass
	for logName, l := range logs {
		naive := eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive})
		for workers := 1; workers <= 4; workers++ {
			f := newClusterFixture(t, workers, "d", l, func(c *cluster.Config) {
				c.MaxAttempts = 1
				c.WorkerTimeout = 2 * time.Second
			}, func(c *Config) { c.CacheSize = -1 })
			// pass asks every query and holds the answer to the oracle's outside
			// lost, the part that must be named missing (nil: none, a 200).
			pass := func(lost *cluster.Part) {
				for _, q := range clusterEquivalenceQueries {
					name := fmt.Sprintf("%s/%dw/lost=%v/%s", logName, workers, lost != nil, q)
					var got queryResponse
					rec := postQuery(t, f.coord.Handler(), fmt.Sprintf(`{"log":"d","query":%q,"partial":true}`, q), nil)
					if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
						t.Fatalf("%s: %v: %s", name, err, rec.Body)
					}
					comp := got.Completeness
					switch {
					case comp == nil:
						t.Fatalf("%s: status %d without completeness: %s", name, rec.Code, rec.Body)
					case lost == nil && (rec.Code != http.StatusOK || !comp.Complete):
						t.Fatalf("%s: status %d, completeness %+v, want a complete 200", name, rec.Code, comp)
					case lost != nil && (rec.Code != http.StatusPartialContent || len(comp.Failures) != 1):
						t.Fatalf("%s: status %d, completeness %+v, want a 206 with one failure", name, rec.Code, comp)
					}
					lo, hi := uint64(1), uint64(0) // the lost interval: empty on a 200
					if lost != nil {
						fo := comp.Failures[0]
						lo, hi = fo.WIDMin, fo.WIDMax
						members := 0 // of the log, inside the named interval
						for _, wid := range l.WIDs() {
							if wid >= lo && wid <= hi {
								members++
							}
						}
						if fo.Worker != f.urls[victim] || lo != lost.MinWID || hi != lost.MaxWID ||
							fo.WIDs != members || comp.ExcludedWIDs != members {
							t.Fatalf("%s: failure %+v with %d excluded wids; the log has %d in that interval, the victim's part is wids %d–%d",
								name, fo, comp.ExcludedWIDs, members, lost.MinWID, lost.MaxWID)
						}
					}
					var surviving []incident.Incident
					for _, inc := range naive.Eval(pattern.MustParse(q)).Incidents() {
						if inc.WID() < lo || inc.WID() > hi {
							surviving = append(surviving, inc)
						}
					}
					var want queryResponse
					want.Count = len(surviving)
					if len(surviving) > 0 { // the wire form omits an empty list
						want.Incidents = incidentDocs(surviving)
					}
					if digestOf(got) != digestOf(want) {
						t.Fatalf("%s: cluster answer diverges from naive Algorithm 1 outside wids %d–%d\n cluster: %s\n  oracle: %s",
							name, lo, hi, digestOf(got), digestOf(want))
					}
				}
			}
			pass(nil)
			if workers <= victim {
				continue
			}
			f.workers[victim].CloseClientConnections()
			f.workers[victim].Close()
			// With fewer than two wids the victim was idle and nothing is lost.
			if parts := cluster.Partition(l.WIDs(), workers); len(parts) > victim {
				pass(&parts[victim])
			} else {
				pass(nil)
			}
		}
	}
}

// TestClusterChaosWorkerKilledAcceptance is the tier's acceptance walk: 4
// workers, one killed → 206 naming exactly the lost wid interval, degraded
// /readyz, an open breaker in the metrics; after the worker rejoins at the
// same address, the same query answers 200, digest-equal to the healthy run.
func TestClusterChaosWorkerKilledAcceptance(t *testing.T) {
	l := chaosLog(t, 16, 2)
	// The coordinator cache is off: the healthy run would otherwise cache
	// the complete answer and the post-kill query would (correctly, but
	// uninterestingly) hit it instead of exercising the degraded fan-out.
	f := newClusterFixture(t, 4, "chaos", l, func(c *cluster.Config) {
		c.MaxAttempts = 1
		c.BreakerThreshold = 1
		c.WorkerTimeout = 2 * time.Second
	}, func(c *Config) { c.CacheSize = -1 })
	h := f.coord.Handler()
	const query = `{"log":"chaos","query":"A -> B","partial":true}`

	var healthy queryResponse
	if rec := postQuery(t, h, query, &healthy); rec.Code != http.StatusOK {
		t.Fatalf("healthy fleet status %d: %s", rec.Code, rec.Body)
	}
	if healthy.Completeness == nil || !healthy.Completeness.Complete || healthy.Count == 0 {
		t.Fatalf("healthy fleet result incomplete: %+v", healthy.Completeness)
	}

	// Placement is the log's wids cut into one range per worker, so the
	// victim's loss is predictable down to the wid: this is exactly the
	// interval the completeness must name.
	const victimIdx, activeShards = 2, 4
	victim := f.urls[victimIdx]
	assigned := cluster.Partition(l.WIDs(), activeShards)[victimIdx].WIDs

	f.workers[victimIdx].CloseClientConnections()
	f.workers[victimIdx].Close()

	var partial queryResponse
	rec := postQuery(t, h, query, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("killed-worker status %d, want 206: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
		t.Fatal(err)
	}
	c := partial.Completeness
	if c == nil || c.Complete || c.Shards != activeShards || c.Succeeded != activeShards-1 || c.Failed != 1 {
		t.Fatalf("completeness = %+v, want %d of %d shards with 1 failed", c, activeShards-1, activeShards)
	}
	if c.ExcludedWIDs != len(assigned) {
		t.Fatalf("excluded %d wids, want the victim's %d", c.ExcludedWIDs, len(assigned))
	}
	if len(c.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly the victim", c.Failures)
	}
	fo := c.Failures[0]
	if fo.Worker != victim {
		t.Fatalf("failure names worker %q, want victim %q", fo.Worker, victim)
	}
	if fo.WIDMin != assigned[0] || fo.WIDMax != assigned[len(assigned)-1] || fo.WIDs != len(assigned) {
		t.Fatalf("failure interval %d–%d (%d wids), want %d–%d (%d)",
			fo.WIDMin, fo.WIDMax, fo.WIDs, assigned[0], assigned[len(assigned)-1], len(assigned))
	}
	if strings.Contains(rec.Body.String(), "wid_ranges") {
		t.Fatalf("completeness still carries wid_ranges: %s", rec.Body)
	}
	for _, inc := range partial.Incidents {
		if inc.WID >= fo.WIDMin && inc.WID <= fo.WIDMax {
			t.Fatalf("incident from the lost interval leaked into the partial result: %+v", inc)
		}
	}
	if partial.Count != healthy.Count*(16-len(assigned))/16 {
		t.Fatalf("partial count %d, want the surviving %d/16 of %d", partial.Count, 16-len(assigned), healthy.Count)
	}

	// Strict mode refuses the same degraded answer.
	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("strict status %d, want 502: %s", rec.Code, rec.Body)
	}

	// The loss is observable before the next query: the probe marks the
	// worker lost on /readyz, and the breaker (threshold 1) shows open in
	// the prometheus exposition.
	f.coord.Coordinator().ProbeOnce(context.Background())
	var ready map[string]any
	getJSON(t, h, "/readyz", &ready)
	if ready["status"] != "degraded" {
		t.Fatalf("readyz status %v, want degraded", ready["status"])
	}
	lostList, _ := ready["workers_lost"].([]any)
	foundVictim := false
	for _, w := range lostList {
		if w == victim {
			foundVictim = true
		}
	}
	if !foundVictim {
		t.Fatalf("readyz workers_lost %v does not name the victim %s", lostList, victim)
	}
	promRec := getJSON(t, h, "/metrics?format=prometheus", nil)
	if want := fmt.Sprintf("wlq_cluster_worker_breaker_open{worker=%q} 1", victim); !strings.Contains(promRec.Body.String(), want) {
		t.Fatalf("prometheus exposition missing %q", want)
	}

	// Rejoin: a fresh worker process on the SAME address (same place in the
	// fleet), plus a clock jump past the breaker cooldown so the
	// half-open probe admits it.
	addr := strings.TrimPrefix(victim, "http://")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind victim address %s: %v", addr, err)
	}
	revived := &httptest.Server{Listener: ln, Config: &http.Server{Handler: f.wsrv[victimIdx].Handler()}}
	revived.Start()
	t.Cleanup(revived.Close)
	resilience.SetClock(func() time.Time { return time.Now().Add(time.Hour) })
	defer resilience.SetClock(nil)

	var healed queryResponse
	if rec := postQuery(t, h, query, &healed); rec.Code != http.StatusOK {
		t.Fatalf("post-rejoin status %d: %s", rec.Code, rec.Body)
	}
	if digestOf(healed) != digestOf(healthy) {
		t.Fatalf("post-rejoin answer diverges from the healthy run\n healed: %s\nhealthy: %s",
			digestOf(healed), digestOf(healthy))
	}
	if healed.Cached {
		t.Fatal("post-rejoin answer came from the cache: the partial result was cached")
	}
	f.coord.Coordinator().ProbeOnce(context.Background())
	ready = nil
	getJSON(t, h, "/readyz", &ready)
	if ready["status"] != "ready" {
		t.Fatalf("post-rejoin readyz status %v, want ready", ready["status"])
	}
}

// TestClusterChaosPartialResultNeverCached extends the cache-safety
// regression to the distributed path: a 206 assembled from a degraded fleet
// must never be served from the cache once the fleet heals.
func TestClusterChaosPartialResultNeverCached(t *testing.T) {
	l := chaosLog(t, 16, 2)
	f := newClusterFixture(t, 2, "chaos", l, func(c *cluster.Config) {
		c.MaxAttempts = 1 // keep the breaker (default threshold) out of the picture
		c.WorkerTimeout = 2 * time.Second
	}, nil)
	h := f.coord.Handler()
	const query = `{"log":"chaos","query":"A -> B","partial":true}`

	const victim = 1
	f.workers[victim].CloseClientConnections()
	f.workers[victim].Close()

	var partial queryResponse
	rec := postQuery(t, h, query, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
		t.Fatal(err)
	}
	if f.coord.cache.len() != 0 {
		t.Fatalf("partial cluster result entered the cache (%d entries)", f.coord.cache.len())
	}

	// Heal the fleet: rebind the victim's address.
	addr := strings.TrimPrefix(f.urls[victim], "http://")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	revived := &httptest.Server{Listener: ln, Config: &http.Server{Handler: f.wsrv[victim].Handler()}}
	revived.Start()
	t.Cleanup(revived.Close)

	var healed queryResponse
	if rec := postQuery(t, h, query, &healed); rec.Code != http.StatusOK {
		t.Fatalf("post-heal status %d: %s", rec.Code, rec.Body)
	}
	if healed.Cached {
		t.Fatal("post-heal response claims a cache hit: the 206 was cached")
	}
	if healed.Partial || healed.Count <= partial.Count {
		t.Fatalf("post-heal result not complete: partial=%v count=%d (was %d)",
			healed.Partial, healed.Count, partial.Count)
	}
	// And the other direction: the complete answer IS cached.
	var again queryResponse
	postQuery(t, h, query, &again)
	if !again.Cached {
		t.Fatal("complete post-heal result was not cached")
	}
}

// TestClusterChaosBudgetTripIs422: a budget trip on one worker fails the
// whole query with the worker's budget error — a 422 naming the dimension,
// strict or partial — never a lost part and a shorter answer. Wids 1–8 hold
// one A/B pair each and wids 9–16 twenty, so "A -> B" produces 8 + 8·210 =
// 1688 incidents: within a 3000-output budget on one node, over the 1500 of
// it the second of two workers gets.
func TestClusterChaosBudgetTripIs422(t *testing.T) {
	var b wlog.Builder
	for i := 0; i < 16; i++ {
		pairs := 20
		if i < 8 {
			pairs = 1
		}
		wid := b.Start()
		for j := 0; j < pairs; j++ {
			if err := b.Emit(wid, "A", nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := b.Emit(wid, "B", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	l := b.MustBuild()
	budget := resilience.Budget{MaxOutputs: 3000}

	var whole queryResponse
	single := serverOver(t, Config{Budget: budget}, "skew", l).Handler()
	if rec := postQuery(t, single, `{"query":"A -> B"}`, &whole); rec.Code != http.StatusOK || whole.Count != 1688 {
		t.Fatalf("single node: status %d, count %d; want 200 and 1688: %s", rec.Code, whole.Count, rec.Body)
	}

	h := newClusterFixture(t, 2, "skew", l, nil, func(c *Config) { c.Budget = budget }).coord.Handler()
	// More trips than the default breaker threshold: a worker that answers
	// with a trip is healthy, so its breaker stays closed.
	for i := 0; i < 2*cluster.DefaultBreakerThreshold; i++ {
		body := []string{`{"query":"A -> B"}`, `{"query":"A -> B","partial":true}`}[i%2]
		rec := postQuery(t, h, body, nil)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422: %s", body, rec.Code, rec.Body)
		}
		doc := decodeError(t, rec)
		if doc.BudgetDimension != resilience.DimOutputs || doc.BudgetLimit != 1500 || doc.BudgetMeasured <= 1500 || doc.Completeness != nil {
			t.Fatalf("%s: 422 envelope %s; want the worker's outputs trip over its 1500 and no completeness", body, rec.Body)
		}
	}
	var light queryResponse
	if rec := postQuery(t, h, `{"query":"A . B"}`, &light); rec.Code != http.StatusOK || light.Count != 8+8*20 {
		t.Fatalf("a query within budget after the trips: status %d, count %d; want 200 and 168: %s", rec.Code, light.Count, rec.Body)
	}
}

// TestClusterFaultTransportErrorRetried: a single transport-level failure
// (connection reset) is transient; the retry loop absorbs it and the client
// sees a complete 200.
func TestClusterFaultTransportErrorRetried(t *testing.T) {
	l := chaosLog(t, 16, 2)
	var flaky faultinject.FlakyRoundTripper
	f := newClusterFixture(t, 2, "chaos", l, func(c *cluster.Config) {
		flaky = faultinject.FlakyRoundTripper{Match: c.Workers[0], FailOn: faultinject.OnNthCall(1)}
		c.Transport = &flaky
		c.MaxAttempts = 2
	}, nil)
	var resp queryResponse
	rec := postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"A -> B"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after retry: %s", rec.Code, rec.Body)
	}
	if resp.Completeness == nil || !resp.Completeness.Complete {
		t.Fatalf("retried result not complete: %+v", resp.Completeness)
	}
	if got := f.coord.Coordinator().Stats().WorkerRetries; got != 1 {
		t.Fatalf("worker retries = %d, want exactly 1", got)
	}
	if resp.Completeness.Retries != 1 {
		t.Fatalf("completeness retries = %d, want 1", resp.Completeness.Retries)
	}
}

// TestClusterFaultTimedOutAttemptRetried: a blackholed first attempt (the
// request goes out, nothing comes back) is ended by the per-attempt timeout,
// and the retry answers: a complete 200 with one retry.
func TestClusterFaultTimedOutAttemptRetried(t *testing.T) {
	l := chaosLog(t, 16, 2)
	var flaky faultinject.FlakyRoundTripper
	f := newClusterFixture(t, 2, "chaos", l, func(c *cluster.Config) {
		flaky = faultinject.FlakyRoundTripper{Match: c.Workers[0], BlackholeOn: faultinject.OnNthCall(1)}
		c.Transport = &flaky
		c.WorkerTimeout = 100 * time.Millisecond
	}, nil)
	var resp queryResponse
	rec := postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"A -> B"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after the retry: %s", rec.Code, rec.Body)
	}
	if resp.Completeness == nil || !resp.Completeness.Complete || resp.Completeness.Retries != 1 {
		t.Fatalf("completeness %+v, want complete after one retry", resp.Completeness)
	}
	if got := f.coord.Coordinator().Stats().WorkerRetries; got != 1 {
		t.Fatalf("worker retries = %d, want exactly 1", got)
	}
}

// TestClusterFaultCancelledProbeHandedBack: a worker's half-open probe whose
// query times out before the worker answers says nothing about the worker,
// so the breaker must not wait for its outcome forever. After the timed-out
// probe, the next query reaches the worker and answers 200, and /readyz is
// ready again.
func TestClusterFaultCancelledProbeHandedBack(t *testing.T) {
	l := chaosLog(t, 16, 2)
	var victim string
	f := newClusterFixture(t, 2, "chaos", l, func(c *cluster.Config) {
		victim = c.Workers[1]
		// The victim's first request fails, which opens its breaker; its
		// second — the half-open probe — hangs until the query gives up.
		// (A request FailOn fires on never reaches the BlackholeOn count, so
		// the blackhole's first call is the second request.)
		c.Transport = &faultinject.FlakyRoundTripper{Match: victim,
			FailOn: faultinject.OnNthCall(1), BlackholeOn: faultinject.OnNthCall(1)}
		c.MaxAttempts = 1
		c.BreakerThreshold = 1
	}, func(c *Config) { c.CacheSize = -1 })
	h := f.coord.Handler()

	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("failed worker: status %d, want 502: %s", rec.Code, rec.Body)
	}
	// Past the cooldown, the next query carries the probe, and its 50ms
	// budget runs out while the worker stays silent.
	resilience.SetClock(func() time.Time { return time.Now().Add(time.Hour) })
	defer resilience.SetClock(nil)
	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B","timeout_ms":50}`, nil); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out probe: status %d, want 504: %s", rec.Code, rec.Body)
	}

	var resp queryResponse
	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, &resp); rec.Code != http.StatusOK {
		t.Fatalf("after the timed-out probe: status %d, want 200 (the worker is healthy): %s", rec.Code, rec.Body)
	}
	if resp.Completeness == nil || !resp.Completeness.Complete {
		t.Fatalf("completeness %+v, want complete", resp.Completeness)
	}
	f.coord.Coordinator().ProbeOnce(context.Background())
	var ready map[string]any
	getJSON(t, h, "/readyz", &ready)
	if ready["status"] != "ready" {
		t.Fatalf("readyz %v, want ready once the worker answered", ready)
	}
}

// TestClusterFaultStaleWorkerDetected: a worker serving an outdated copy of
// the log holds fewer wids inside its interval than the coordinator's copy
// does. Merging its answer would silently mis-cover the log, so the member
// count cross-check must exclude it — whichever wid of the interval the
// stale copy lacks, deterministically, without retries.
func TestClusterFaultStaleWorkerDetected(t *testing.T) {
	fresh := chaosLog(t, 16, 2)
	f := newClusterFixture(t, 2, "chaos", fresh, func(c *cluster.Config) {
		c.MaxAttempts = 2 // the mismatch must NOT be retried even though attempts remain
	}, nil)
	// The last worker's interval is wids 9–16; a copy one instance short of
	// the log is the least stale a copy can be.
	const victimIdx, staleSize = 1, 15

	// Swap the victim's backing server for one serving the stale log at the
	// same URL (membership did not change, data did).
	staleSrv := New(Config{WorkerMode: true, FlightRecorderSize: -1})
	if err := staleSrv.AddLog("chaos", "builtin:stale", chaosLog(t, staleSize, 2)); err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(f.urls[victimIdx], "http://")
	f.workers[victimIdx].CloseClientConnections()
	f.workers[victimIdx].Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	stale := &httptest.Server{Listener: ln, Config: &http.Server{Handler: staleSrv.Handler()}}
	stale.Start()
	t.Cleanup(stale.Close)

	rec := postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"A -> B","partial":true}`, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("stale-worker status %d, want 206: %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	c := resp.Completeness
	if c == nil || c.Failed != 1 || len(c.Failures) != 1 {
		t.Fatalf("completeness = %+v, want the stale worker excluded", c)
	}
	if fo := c.Failures[0]; !strings.Contains(fo.Cause, "placement mismatch") || fo.WIDMin != 9 || fo.WIDMax != 16 || fo.WIDs != 8 {
		t.Fatalf("failure %+v does not name the placement mismatch over wids 9–16", fo)
	}
	// Deterministic failure: one attempt, no retries burned on it.
	if got := f.coord.Coordinator().Stats().WorkerRetries; got != 0 {
		t.Fatalf("stale worker was retried %d times; mismatches are deterministic", got)
	}
}

// TestClusterWorkerEndpoint covers the worker side in isolation: evaluation
// of exactly the requested interval with the echoed member count, and each
// rejection class.
func TestClusterWorkerEndpoint(t *testing.T) {
	l := chaosLog(t, 16, 2)
	s, _ := startWorker(t, "chaos", l)
	h := s.Handler()
	u64 := func(v uint64) *uint64 { return &v }

	post := func(t *testing.T, req cluster.WorkerQueryRequest) *httptest.ResponseRecorder {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/worker/query", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	base := cluster.WorkerQueryRequest{
		Log: "chaos", Plan: "A -> B", WIDMin: u64(5), WIDMax: u64(12), Self: "http://w1",
	}

	t.Run("evaluates exactly the owned wids", func(t *testing.T) {
		rec := post(t, base)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp cluster.WorkerQueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.WIDsOwned != 8 || resp.Instances != 8 {
			t.Fatalf("WIDsOwned = %d, Instances = %d, want the 8 wids of 5–12", resp.WIDsOwned, resp.Instances)
		}
		// A -> B matches every instance: the answer spans the interval, end to
		// end, and stops there.
		incs, err := cluster.DecodeIncidents(resp.Incidents)
		if n := len(incs); err != nil || n == 0 || incs[0].WID() != 5 || incs[n-1].WID() != 12 {
			t.Fatalf("incidents %s (%v) do not span exactly wids 5–12", resp.Incidents, err)
		}
	})
	t.Run("answers in the request's mode", func(t *testing.T) {
		want := oracleSet(l, "A -> B").FilterWID // by wid, below
		n := 0
		for wid := uint64(5); wid <= 12; wid++ {
			n += want(wid).Len()
		}
		for mode, array := range map[string]string{"count": "", "instances": "wids"} {
			req := base
			req.Mode = mode
			rec := post(t, req)
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d, err %v: %s", mode, rec.Code, err, rec.Body)
			}
			if string(doc["count"]) != fmt.Sprint(n) || doc["incidents"] != nil || (doc["wids"] != nil) != (array != "") {
				t.Errorf("%s reply %s, want count %d and only the %q array", mode, rec.Body, n, array)
			}
			if mode == "count" && rec.Body.Len() >= 400 {
				t.Errorf("a count reply of %d bytes", rec.Body.Len())
			}
			if mode == "instances" && string(doc["wids"]) != "[5,6,7,8,9,10,11,12]" {
				t.Errorf("wids %s, want the eight of 5–12", doc["wids"])
			}
		}
		req := base
		req.Mode = "exists"
		if rec := post(t, req); rec.Code != http.StatusBadRequest {
			t.Errorf("unknown mode: status %d, want 400: %s", rec.Code, rec.Body)
		}
	})
	t.Run("an old coordinator's limit is tolerated and ignored", func(t *testing.T) {
		// The worker endpoint accepts unknown fields (rolling upgrades); a
		// per-operator cap is one, and the answer is incL(p).
		body := `{"log":"chaos","plan":"A -> B","wid_min":5,"wid_max":12,"self":"http://w1","limit":1}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/query", strings.NewReader(body)))
		var resp cluster.WorkerQueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d, err %v: %s", rec.Code, err, rec.Body)
		}
		oracle := eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive})
		want, err := oracle.EvalWIDsCtx(context.Background(), pattern.MustParse("A -> B"), []uint64{5, 6, 7, 8, 9, 10, 11, 12}, nil)
		if err != nil {
			t.Fatal(err)
		}
		incs, err := cluster.DecodeIncidents(resp.Incidents)
		if err != nil || !incident.MergeSorted(incs).Equal(want) {
			t.Fatalf("worker answered %d incidents (%v), naive Algorithm 1 has %d", len(incs), err, want.Len())
		}
	})
	t.Run("an interval past the log is empty, not an error", func(t *testing.T) {
		req := base
		req.WIDMin, req.WIDMax = u64(17), u64(99)
		rec := post(t, req)
		var resp cluster.WorkerQueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d, err %v: %s", rec.Code, err, rec.Body)
		}
		if resp.WIDsOwned != 0 || string(resp.Incidents) != "[]" {
			t.Fatalf("WIDsOwned = %d with incidents %s, want none", resp.WIDsOwned, resp.Incidents)
		}
	})
	t.Run("unknown log is 404", func(t *testing.T) {
		req := base
		req.Log = "nope"
		if rec := post(t, req); rec.Code != http.StatusNotFound {
			t.Fatalf("status %d, want 404", rec.Code)
		}
	})
	t.Run("missing or inverted interval is 400", func(t *testing.T) {
		// Never "evaluate everything": a request from before this wire, or
		// one that lost a bound, must not be answered from the whole log.
		for name, bounds := range map[string][2]*uint64{
			"no bounds": {nil, nil}, "no min": {nil, u64(12)}, "no max": {u64(5), nil}, "inverted": {u64(12), u64(5)},
		} {
			req := base
			req.WIDMin, req.WIDMax = bounds[0], bounds[1]
			rec := post(t, req)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "wid_min") {
				t.Errorf("%s: status %d, want a 400 naming the interval: %s", name, rec.Code, rec.Body)
			}
		}
	})
	t.Run("malformed plan is 400", func(t *testing.T) {
		req := base
		req.Plan = "A -> ("
		if rec := post(t, req); rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", rec.Code)
		}
	})
	t.Run("budget abort is 422 with the dimension", func(t *testing.T) {
		req := base
		req.Budget = cluster.BudgetDoc{MaxComparisons: 1}
		rec := post(t, req)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body)
		}
		var ed cluster.WorkerErrorDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &ed); err != nil {
			t.Fatal(err)
		}
		if ed.BudgetDimension != resilience.DimComparisons {
			t.Fatalf("budget dimension %q, want %q", ed.BudgetDimension, resilience.DimComparisons)
		}
	})
	t.Run("worker endpoint absent outside worker mode", func(t *testing.T) {
		plain := newTestServer(t, Config{})
		r := httptest.NewRequest(http.MethodPost, "/v1/worker/query", strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		plain.Handler().ServeHTTP(rec, r)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("status %d, want 404 on a non-worker server", rec.Code)
		}
	})
}

// TestClusterFlightRecorderWorkersField: coordinator captures carry the
// fan-out summary, so a flight of a degraded query shows which workers
// answered.
func TestClusterFlightRecorderWorkersField(t *testing.T) {
	l := chaosLog(t, 16, 2)
	f := newClusterFixture(t, 2, "chaos", l, nil, nil)
	if rec := postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"A -> B"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	flights := f.coord.flight.List(flightrec.Filter{})
	if len(flights) != 1 {
		t.Fatalf("%d flights recorded, want 1", len(flights))
	}
	ws := flights[0].Workers
	if ws == nil {
		t.Fatal("capture has no workers summary on a cluster coordinator")
	}
	if ws.Workers != 2 || ws.Succeeded != ws.Workers || ws.Failed != 0 || ws.Skipped != 0 {
		t.Fatalf("workers summary = %+v, want every active worker succeeded", ws)
	}
}

// TestClusterMetrics: the JSON and prometheus metrics carry the cluster
// section with the right role on each side of the tier.
func TestClusterMetrics(t *testing.T) {
	l := chaosLog(t, 16, 2)
	f := newClusterFixture(t, 2, "chaos", l, nil, nil)
	postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"A -> B"}`, nil)

	var doc metricsDoc
	getJSON(t, f.coord.Handler(), "/metrics", &doc)
	if doc.Cluster == nil {
		t.Fatal("coordinator metrics missing the cluster section")
	}
	if doc.Cluster.Role != "coordinator" || doc.Cluster.Workers != 2 {
		t.Fatalf("coordinator cluster section = %+v", doc.Cluster)
	}
	if doc.Cluster.ClusterQueries != 1 || doc.Cluster.Fanouts != 1 || doc.Cluster.WorkerRequests < 1 {
		t.Fatalf("coordinator counters = queries=%d fanouts=%d requests=%d, want 1/1/>=1",
			doc.Cluster.ClusterQueries, doc.Cluster.Fanouts, doc.Cluster.WorkerRequests)
	}
	promBody := getJSON(t, f.coord.Handler(), "/metrics?format=prometheus", nil).Body.String()
	for _, family := range []string{
		"wlq_cluster_workers 2",
		"wlq_cluster_queries_total 1",
		"wlq_cluster_worker_requests_total",
		"wlq_cluster_worker_breaker_open",
	} {
		if !strings.Contains(promBody, family) {
			t.Errorf("coordinator prometheus exposition missing %q", family)
		}
	}

	// The worker side.
	const served = 0
	var wdoc metricsDoc
	getJSON(t, f.wsrv[served].Handler(), "/metrics", &wdoc)
	if wdoc.Cluster == nil || wdoc.Cluster.Role != "worker" {
		t.Fatalf("worker cluster section = %+v, want role worker", wdoc.Cluster)
	}
	if wdoc.Cluster.WorkerQueriesServed == 0 {
		t.Fatal("worker served no queries according to its metrics")
	}
	wprom := getJSON(t, f.wsrv[served].Handler(), "/metrics?format=prometheus", nil).Body.String()
	if !strings.Contains(wprom, "wlq_worker_queries_total") {
		t.Error("worker prometheus exposition missing wlq_worker_queries_total")
	}
}
