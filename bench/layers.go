package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/gen"
	"wlq/internal/ingest"
	"wlq/internal/logio"
	"wlq/internal/server"
	"wlq/internal/shard"
	"wlq/internal/stream"
	"wlq/internal/wal"
	"wlq/internal/wlog"
)

// The traced run: the first replayRequests requests of the workload's
// schedule are replayed in this process, one at a time, through each layer's
// public functions, with a span around every call. Layers that cost a full
// evaluation and are not on the served path run on a share of the requests
// (span, flight-recorder and tracing overhead on every overheadEvery-th; count,
// exists, columnar, shard and cluster on every extrasEvery-th), so that the
// traced run fits beside the untraced one in a driver run.
const (
	replayRequests = 48
	overheadEvery  = 3
	extrasEvery    = 4
	microRecords   = 400 // records per logio, stream and WAL measurement
	syncedRecords  = 100 // under fsync=always, where each append waits for the disk
	// The Theorem 1 family: one instance of adversarialM records of one
	// activity under adversarialK parallel operators, O(m^k) incidents.
	adversarialM = 32
	adversarialK = 3
)

// series collects per-call measurements by metric name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mallocs returns the process's cumulative allocation count and bytes.
func mallocs() (uint64, uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// serve runs one query through a handler in-process.
func serve(h http.Handler, req request, trace bool) *httptest.ResponseRecorder {
	body, _ := json.Marshal(map[string]any{"log": logName, "query": req.Query, "mode": req.Mode, "trace": trace})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	return rr
}

// pairMin times a and b alternately, twice each, and returns the faster time
// of each.
func pairMin(a, b func() time.Duration, bFirst bool) (da, db time.Duration) {
	for sweep := 0; sweep < 2; sweep++ {
		var ta, tb time.Duration
		if bFirst {
			tb, ta = b(), a()
		} else {
			ta, tb = a(), b()
		}
		if sweep == 0 || ta < da {
			da = ta
		}
		if sweep == 0 || tb < db {
			db = tb
		}
	}
	return da, db
}

// inprocServer builds a server over the full log for the replay.
func inprocServer(cfg server.Config, l *wlog.Log) (http.Handler, error) {
	cfg.ProbeInterval = -1
	srv := server.New(cfg)
	if err := srv.AddLog(logName, "bench", l); err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// replayLayers produces the per-layer metrics that come from timing public
// calls, and writes the spans to tracePath. It returns the operations it
// checked against the oracle and how many disagreed.
func replayLayers(in *inputs, sched []request, dir, tracePath, workload string) (metrics map[string]float64, attempted, failed int, err error) {
	rec := newRecorder(time.Now)
	s := series{}
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	chk := staticChecker(in.fullAns)

	var ix *eval.Index
	s.add("eval.index_build_ms", ms(rec.timed("eval.index_build", -1, 0, func() { ix = eval.NewIndex(in.full) })))
	var cs *colstore.Store
	s.add("colstore.build_ms", ms(rec.timed("colstore.build", -1, 0, func() { cs = colstore.Build(in.full) })))

	hOff, err := inprocServer(server.Config{CacheSize: -1}, in.full)
	if err != nil {
		return nil, 0, 0, err
	}
	hHit, err := inprocServer(server.Config{}, in.full)
	if err != nil {
		return nil, 0, 0, err
	}
	hNoFlight, err := inprocServer(server.Config{CacheSize: -1, FlightRecorderSize: -1}, in.full)
	if err != nil {
		return nil, 0, 0, err
	}
	loop := httptest.NewServer(hOff)
	defer loop.Close()
	loopQ := &querier{client: newClient(1), url: loop.URL, chk: chk}
	defer loopQ.client.CloseIdleConnections()

	var workerURLs []string
	for i := 0; i < 2; i++ {
		h, err := inprocServer(server.Config{WorkerMode: true}, in.full)
		if err != nil {
			return nil, 0, 0, err
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		workerURLs = append(workerURLs, ts.URL)
	}
	coord, err := cluster.New(cluster.Config{Workers: workerURLs})
	if err != nil {
		return nil, 0, 0, err
	}
	sharded := shard.NewExecutor(ix, shard.Config{Shards: 2})

	n := min(replayRequests, len(sched))
	cachedKeys := make(map[string]bool)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		req := sched[i]
		root := rec.start("replay.request", i, 0)

		var p pattern.Node
		dParse := rec.timed("pattern.parse", i, root, func() { p, err = pattern.Parse(req.Query) })
		if err != nil {
			return nil, 0, 0, err
		}
		var key string
		dCanon := rec.timed("pattern.canonical", i, root, func() { pattern.Canonical(p); key = pattern.CanonicalKey(p) })
		var plan pattern.Node
		dOpt := rec.timed("rewrite.optimize", i, root, func() { plan, _ = rewrite.OptimizeWith(p, ix, rewrite.ModelSelectivities()) })

		meter := eval.NewMeter(plan)
		ev := eval.New(ix, eval.Options{Meter: meter})
		var qs eval.QueryStats
		var set *incident.Set
		a0, b0 := mallocs()
		dMat := rec.timed("eval.materialize", i, root, func() { set, err = ev.EvalParallelCtx(ctx, plan, workers, &qs) })
		a1, b1 := mallocs()
		if err != nil {
			return nil, 0, 0, err
		}
		attempted++
		if set.Len() != in.fullAns[req.Pattern].Count {
			failed++
		}
		s.add("pattern.parse_us", us(dParse))
		s.add("pattern.canonical_us", us(dCanon))
		s.add("rewrite.optimize_us", us(dOpt))
		s.add("eval.materialize_ms", ms(dMat))
		s.add("eval.allocs_per_query", float64(a1-a0))
		s.add("eval.bytes_per_query", float64(b1-b0))
		s.add("eval.comparisons_per_query", float64(meter.TotalComparisons()))
		s.add("eval.incidents_per_query", float64(qs.Incidents))

		var rr *httptest.ResponseRecorder
		a0, _ = mallocs()
		dHandler := rec.timed("server.handler", i, root, func() { rr = serve(hOff, req, false) })
		a1, _ = mallocs()
		attempted++
		if r, perr := parseReply(rr.Body.Bytes(), req.Mode, true); rr.Code != http.StatusOK || perr != nil || chk.check(req, r, true) != "" {
			failed++
		}
		s.add("server.handler_ms", ms(dHandler))
		s.add("server.allocs_per_request", float64(a1-a0))
		s.add("server.self_ms", ms(dHandler-dParse-dCanon-dOpt-dMat))
		s.add("server.resp_bytes_per_query", float64(rr.Body.Len()))

		var problem string
		dWire := rec.timed("wire.request", i, root, func() { _, _, problem = loopQ.do(req, &buf) })
		attempted++
		if problem != "" {
			failed++
		}
		s.add("wire.request_ms", ms(dWire))
		s.add("wire.loopback_ms", ms(dWire-dHandler))

		if !cachedKeys[key] {
			cachedKeys[key] = true
			serve(hHit, req, false)
		}
		s.add("server.cache_hit_ms", ms(rec.timed("server.cache_hit", i, root, func() { serve(hHit, req, false) })))

		if i%overheadEvery == 0 {
			// Sub-millisecond differences between two ways of serving the
			// same request: each pair is timed alternately (so each call
			// follows the other and inherits the same cache and GC state),
			// twice, keeping the faster, and which side goes first alternates.
			bFirst := (i/overheadEvery)%2 == 1
			bare := func() time.Duration { t0 := time.Now(); serve(hOff, req, false); return time.Since(t0) }
			spanned := func() time.Duration {
				return rec.timed("server.handler.again", i, root, func() { serve(hOff, req, false) })
			}
			noFlight := func() time.Duration {
				return rec.timed("server.handler.noflight", i, root, func() { serve(hNoFlight, req, false) })
			}
			traced := func() time.Duration {
				return rec.timed("server.handler.traced", i, root, func() { serve(hOff, req, true) })
			}
			dBare, dSpan := pairMin(bare, spanned, bFirst)
			s.add("bench.trace_overhead_pct", 100*(float64(dSpan)/float64(dBare)-1))
			dOff, dOn := pairMin(noFlight, spanned, bFirst)
			s.add("flightrec.overhead_us", us(dOn-dOff))
			dPlain, dTraced := pairMin(spanned, traced, bFirst)
			s.add("obs.trace_overhead_ms", ms(dTraced-dPlain))
		}

		if i%extrasEvery == 0 {
			plain := eval.New(ix, eval.Options{})
			s.add("eval.count_ms", ms(rec.timed("eval.count", i, root, func() { plain.Count(plan) })))
			s.add("eval.exists_ms", ms(rec.timed("eval.exists", i, root, func() { plain.Exists(plan) })))
			cev := eval.New(cs, eval.Options{})
			s.add("colstore.materialize_ms", ms(rec.timed("colstore.materialize", i, root, func() { cev.EvalParallelCtx(ctx, plan, workers, nil) })))
			s.add("colstore.count_ms", ms(rec.timed("colstore.count", i, root, func() { cev.Count(plan) })))

			// The un-normalised union: the answer's incidents in reverse order.
			incs := set.Incidents()
			slices.Reverse(incs)
			loose := &incident.Set{}
			loose.Add(incs...)
			s.add("incident.normalize_ms", ms(rec.timed("incident.normalize", i, root, loose.Normalize)))

			dShard := rec.timed("shard.execute", i, root, func() { sharded.Execute(ctx, plan, eval.Options{}, nil) })
			dPar := rec.timed("eval.parallel2", i, root, func() { plain.EvalParallelCtx(ctx, plan, 2, nil) })
			s.add("shard.overhead_ms", ms(dShard-dPar))

			var fan cluster.Fanout
			var cset *incident.Set
			dCluster := rec.timed("cluster.execute", i, root, func() {
				cset, _, fan, err = coord.Execute(ctx, logName, plan, cluster.ExecOptions{WIDs: ix.WIDs()}, nil)
			})
			if err != nil {
				return nil, 0, 0, err
			}
			attempted++
			if cset.Len() != set.Len() {
				failed++
			}
			s.add("cluster.execute_ms", ms(dCluster))
			s.add("cluster.overhead_ms", ms(dCluster-dMat))
			slowest, total := 0.0, 0.0
			for _, c := range fan.PerWorker {
				slowest = max(slowest, float64(c.ElapsedUS))
				total += float64(c.ElapsedUS)
			}
			if total > 0 {
				s.add("cluster.straggler_ratio", slowest*float64(len(fan.PerWorker))/total)
			}
			s.add("cluster.retries_per_query", float64(fan.Retries))
		}
		rec.end(root)
	}

	adv := eval.New(eval.NewIndex(gen.WorstCaseLog(adversarialM)), eval.Options{})
	for i := 0; i < 3; i++ {
		s.add("eval.adversarial_ms", ms(rec.timed("eval.adversarial", -1, 0, func() { adv.Eval(gen.WorstCasePattern(adversarialK)) })))
	}
	if err := replayIngest(rec, s, in, dir); err != nil {
		return nil, 0, 0, err
	}

	// Counts that must repeat exactly are reported as means; times and
	// allocation figures (which see GC noise) as medians.
	exact := map[string]bool{"eval.comparisons_per_query": true, "eval.incidents_per_query": true,
		"server.resp_bytes_per_query": true, "cluster.retries_per_query": true,
		"wal.fsyncs_per_record": true, "wal.bytes_per_user_byte": true}
	metrics = make(map[string]float64, len(s))
	for name, vals := range s {
		if exact[name] {
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			metrics[name] = sum / float64(len(vals))
		} else {
			metrics[name] = median(vals)
		}
	}
	// The layer medians, added up, against the median whole request over
	// loopback: how much of a served query the per-layer figures explain.
	sum := metrics["pattern.parse_us"]/1000 + metrics["pattern.canonical_us"]/1000 + metrics["rewrite.optimize_us"]/1000 +
		metrics["eval.materialize_ms"] + metrics["server.self_ms"] + metrics["wire.loopback_ms"]
	metrics["bench.layer_sum_pct"] = 100 * sum / metrics["wire.request_ms"]
	return metrics, attempted, failed, rec.flush(tracePath, workload, in.seed, sched[:n])
}

// replayIngest times the write path's layers on the live-mix base snapshot
// and the head of its append stream: line decode, monitor ingest, the WAL
// under each fsync policy, WAL replay, and the ingest coordinator that
// composes them.
func replayIngest(rec *recorder, s series, in *inputs, dir string) error {
	recs := in.stream[:min(microRecords, len(in.stream))]
	for i, r := range recs {
		line, err := logio.EncodeRecord(r)
		if err != nil {
			return err
		}
		s.add("logio.decode_record_us", us(rec.timed("logio.decode_record", i, 0, func() { _, err = logio.DecodeRecord(line) })))
		if err != nil {
			return err
		}
	}

	mon := stream.NewMonitorOn(nil, eval.NewEmptyIndex())
	if err := mon.IngestLog(in.base); err != nil {
		return err
	}
	for i, r := range recs {
		var err error
		s.add("stream.ingest_us", us(rec.timed("stream.ingest", i, 0, func() { err = mon.Ingest(r) })))
		if err != nil {
			return err
		}
	}

	for _, policy := range []wal.Policy{wal.PolicyAlways, wal.PolicyInterval, wal.PolicyNever} {
		walDir := filepath.Join(dir, "wal-"+policy.String())
		w, _, err := wal.Open(wal.Options{Dir: walDir, Policy: policy})
		if err != nil {
			return err
		}
		batch := recs
		if policy == wal.PolicyAlways {
			batch = recs[:min(syncedRecords, len(recs))]
		}
		for i, r := range batch {
			s.add("wal.append_"+policy.String()+"_us", us(rec.timed("wal.append."+policy.String(), i, 0, func() { err = w.Append(r) })))
			if err != nil {
				return err
			}
		}
		st := w.Stats()
		if err := w.Close(); err != nil {
			return err
		}
		if policy != wal.PolicyAlways {
			continue
		}
		synced := 0
		for _, r := range batch {
			line, _ := logio.EncodeRecord(r)
			synced += len(line)
		}
		s.add("wal.fsyncs_per_record", float64(st.Fsyncs)/float64(len(batch)))
		s.add("wal.bytes_per_user_byte", float64(st.Bytes)/float64(synced))
		replayed := 0
		d := rec.timed("wal.replay", -1, 0, func() {
			var w2 *wal.WAL
			if w2, _, err = wal.Open(wal.Options{Dir: walDir, Policy: policy}); err != nil {
				return
			}
			err = w2.Replay(func(wlog.Record) error { replayed++; return nil })
			w2.Close()
		})
		if err != nil {
			return err
		}
		if replayed != len(batch) {
			return fmt.Errorf("wal replay returned %d of %d records", replayed, len(batch))
		}
		s.add("wal.replay_ms", ms(d))
	}

	co, _, err := ingest.Open(in.base, ingest.Config{Dir: filepath.Join(dir, "wal-ingest")})
	if err != nil {
		return err
	}
	defer co.Close()
	for i, r := range recs[:min(syncedRecords, len(recs))] {
		s.add("ingest.append_us", us(rec.timed("ingest.append", i, 0, func() { _, err = co.Append(r) })))
		if err != nil {
			return err
		}
	}
	s.add("ingest.self_us", median(s["ingest.append_us"])-median(s["wal.append_always_us"])-median(s["stream.ingest_us"]))
	return nil
}
