package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wlq"
	"wlq/internal/logio"
	"wlq/internal/wlog"
)

// inputs are generated once per invocation from the seed and handed to the
// servers only as files and requests.
type inputs struct {
	seed     int64
	full     *wlog.Log
	fullPath string
	fullAns  []answer
	// live-mix: the base snapshot the server loads, and the held-back tail
	// as records and as POST bodies.
	base     *wlog.Log
	basePath string
	baseAns  []answer
	stream   []wlog.Record
	bodies   [][]byte
}

// makeInputs generates the log, the oracle's answers and the files the
// servers load. The base snapshot, its answers and the append stream, sized
// for the measured window, are made only when stream is set.
func makeInputs(cfg runConfig, stream bool) (*inputs, error) {
	full, err := wlq.ClinicLog(cfg.instances, cfg.seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: cfg.seed, full: full, fullPath: filepath.Join(cfg.tmpDir, "clinic.jsonl")}
	if in.fullAns, err = oracleAnswers(full); err != nil {
		return nil, err
	}
	if err := logio.WriteFile(in.fullPath, full); err != nil {
		return nil, err
	}
	if !stream {
		return in, nil
	}
	batches := int(math.Ceil(cfg.seconds * appendRate))
	if in.base, in.stream, err = splitLive(full, min(batches*appendBatch, full.Len()/4)); err != nil {
		return nil, err
	}
	if in.bodies, err = appendBodies(in.stream); err != nil {
		return nil, err
	}
	if in.baseAns, err = oracleAnswers(in.base); err != nil {
		return nil, err
	}
	in.basePath = filepath.Join(cfg.tmpDir, "clinic-base.jsonl")
	return in, logio.WriteFile(in.basePath, in.base)
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed      int64
	seconds   float64
	trace     bool
	instances int
	setups    int    // set-up repetitions; setup_s is their median
	outDir    string // reports and traces
	tmpDir    string // inputs, WALs, the built server; removed on exit
}

// outcome is one workload's result.
type outcome struct {
	Workload   string             `json:"workload"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`     // timings at the nominal machine speed
	Raw        map[string]float64 `json:"end_to_end_raw,omitempty"` // the same as the clock read them
	RefMS      []float64          `json:"ref_kernel_ms"`            // the window's reference kernel samples
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Live       map[string]float64 `json:"live,omitempty"` // the appender's figures, on either kind of run
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Acked      int                `json:"append_batches_acked"`
	Samples    int                `json:"query_samples"`
	P95MS      float64            `json:"pooled_query_p95_ms"`
	P99MS      float64            `json:"pooled_query_p99_ms"`
	TailPct    float64            `json:"highest_supported_percentile"`
	WindowS    float64            `json:"measured_seconds"`
	Cycles     cycleSeries        `json:"per_pass"`
	SetupS     []float64          `json:"setup_s_each"`
	ServerArgs []string           `json:"server_flags"`
}

// cycleSeries holds one value per completed pass over the schedule. The
// end-to-end latency, throughput and CPU metrics are medians of these.
type cycleSeries struct {
	P50MS      []float64 `json:"query_p50_ms"`
	P95MS      []float64 `json:"query_p95_ms"`
	QPS        []float64 `json:"query_qps"`
	CPUMSPerOp []float64 `json:"server_cpu_ms_per_op"`
}

func cycleMetrics(res *loadResult) cycleSeries {
	var s cycleSeries
	prev := res.Origin
	for _, cy := range res.Cycles {
		dt := (cy.End.Sub(prev.End) - cy.Paused).Seconds()
		ops := len(cy.QueryMS) + cy.Acked - prev.Acked
		if len(cy.QueryMS) == 0 {
			continue
		}
		sort.Float64s(cy.QueryMS)
		s.P50MS = append(s.P50MS, percentile(cy.QueryMS, 50))
		s.P95MS = append(s.P95MS, percentile(cy.QueryMS, 95))
		s.QPS = append(s.QPS, float64(len(cy.QueryMS))/dt)
		s.CPUMSPerOp = append(s.CPUMSPerOp, (cy.CPUMS-prev.CPUMS)/float64(ops))
		prev = cy
	}
	return s
}

// runWorkload sets the servers up, drives the measured window, checks the
// answers, and then either sets up again until there are cfg.setups timings
// or, with cfg.trace, replays the schedule's head through the layers.
func runWorkload(h *harness, w workloadDef, in *inputs, cfg runConfig) (*outcome, error) {
	dir := filepath.Join(cfg.tmpDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := &outcome{Workload: w.name}
	sched := schedule(w.multiset(), cfg.seed)
	chk := staticChecker(in.fullAns)
	if w.appender {
		chk = checker{lo: in.baseAns, hi: in.fullAns}
	}
	client := newClient(2)
	defer client.CloseIdleConnections()

	// Set-up: servers up and ready, then one request per pattern so caches
	// are filled and lazy work is done. The first set-up's servers are the
	// ones measured; the others run after the window, so that a slow few
	// seconds of the machine cannot take all of them.
	var fleet []*node
	stopFleet := func() {
		for _, n := range fleet {
			n.stop()
		}
		client.CloseIdleConnections()
	}
	defer stopFleet()
	setUp := func() (*querier, error) {
		t0 := time.Now()
		var err error
		if fleet, err = w.start(h, in, dir); err != nil {
			return nil, err
		}
		q := &querier{client: client, url: fleet[0].url, chk: chk}
		var buf bytes.Buffer
		for _, req := range warmPass(sched) {
			if _, _, problem := q.do(req, &buf); problem != "" {
				return nil, fmt.Errorf("%s: warm pass: %s [%s]: %s", w.name, req.Query, req.Mode, problem)
			}
		}
		out.SetupS = append(out.SetupS, time.Since(t0).Seconds())
		return q, nil
	}
	q, err := setUp()
	if err != nil {
		return nil, err
	}
	for _, n := range fleet {
		out.ServerArgs = append(out.ServerArgs, n.flags)
	}

	// Warm-up, discarded: one full pass over the schedule, so that the
	// servers' heaps have grown to their working size before the window opens.
	warm := &loadResult{}
	closedLoop(wallClock{}, q, sched, time.Now(), warm, nil)
	if warm.Failed > 0 {
		return nil, fmt.Errorf("%s: warm-up: %v", w.name, warm.Failures)
	}

	var bodies [][]byte
	if w.appender {
		bodies = in.bodies
	}
	before, err := readCounters(client, q.url)
	if err != nil {
		return nil, err
	}
	var cpuErr error
	res := drive(q, sched, bodies, cfg.seconds, func() float64 {
		v, err := sumOver(fleet, cpuMillis)
		if err != nil {
			cpuErr = err
		}
		return v
	})
	if cpuErr != nil {
		return nil, cpuErr
	}
	after, err := readCounters(client, q.url)
	if err != nil {
		return nil, err
	}
	rss, err := sumOver(fleet, peakRSSMB)
	if err != nil {
		return nil, err
	}
	if w.appender {
		if err := checkLiveFinal(q, in, res); err != nil {
			return nil, err
		}
	}

	if w.appender {
		out.Live = liveMetrics(res)
		// A late generator, not the server, was the bottleneck. The latencies
		// run from the due time, so they include the lateness and read worse,
		// never better; the note says they do not describe the server.
		if late := out.Live["live.append_late_p95_ms"]; late > maxLateMS {
			out.Notes = append(out.Notes, fmt.Sprintf("generator p95 lateness %.1f ms exceeds %d ms: live.append_* measure the generator, not the server", late, maxLateMS))
		}
	}
	out.Attempted, out.Failed, out.Failures = res.Attempted, res.Failed, res.Failures
	out.WindowS, out.Acked, out.RefMS = res.Window.Seconds(), res.Acked, res.RefMS
	sort.Float64s(res.QueryMS)
	out.Samples = len(res.QueryMS)
	out.P95MS, out.P99MS = percentile(res.QueryMS, 95), percentile(res.QueryMS, 99)
	out.TailPct = supportedTail(out.Samples)
	out.Cycles = cycleMetrics(res)
	if len(out.Cycles.QPS) == 0 {
		return nil, fmt.Errorf("%s: no pass over the schedule completed: %v", w.name, res.Failures)
	}
	stopFleet()
	if !cfg.trace {
		for len(out.SetupS) < cfg.setups {
			if _, err := setUp(); err != nil {
				return nil, err
			}
			stopFleet()
		}
		out.Raw = map[string]float64{
			"setup_s":              median(out.SetupS),
			"query_p50_ms":         median(out.Cycles.P50MS),
			"query_p95_ms":         median(out.Cycles.P95MS),
			"query_qps":            median(out.Cycles.QPS),
			"server_cpu_ms_per_op": median(out.Cycles.CPUMSPerOp),
			"server_peak_rss_mb":   rss,
		}
		// One factor for the run, the later set-ups included: the machine's
		// phases outlast it.
		f := refFactor(out.RefMS)
		out.EndToEnd = map[string]float64{
			"setup_s":              out.Raw["setup_s"] / f,
			"query_p50_ms":         out.Raw["query_p50_ms"] / f,
			"query_p95_ms":         out.Raw["query_p95_ms"] / f,
			"query_qps":            out.Raw["query_qps"] * f,
			"server_cpu_ms_per_op": out.Raw["server_cpu_ms_per_op"] / f,
			"server_peak_rss_mb":   rss,
		}
		return out, nil
	}

	layers, attempted, failed, err := replayLayers(in, sched, dir, filepath.Join(cfg.outDir, "trace-"+w.name+".json"), w.name)
	if err != nil {
		return nil, err
	}
	out.Attempted += attempted
	out.Failed += failed
	if failed > 0 {
		out.Failures = append(out.Failures, fmt.Sprintf("%d replayed operations disagreed with the oracle", failed))
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	layers["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	layers["server.shed_ratio"] = ratio(after.QueriesShed-before.QueriesShed, after.QueriesTotal-before.QueriesTotal)
	layers["server.non_eval_ms"] = median(res.NonEvalMS)
	layers["client.query_p99_ms"] = out.P99MS
	layers["client.query_samples"] = float64(out.Samples)
	layers["bench.ref_kernel_ms"] = refFactor(out.RefMS) * refNominalMS
	for name, v := range liveMetrics(res) {
		layers[name] = v
	}
	out.PerLayer = layers
	return out, nil
}

// liveMetrics are the open-loop appender's figures for the window: batch
// latency from the due time to the 200, and the generator's own lateness.
// They are 0 on a workload without an appender.
func liveMetrics(res *loadResult) map[string]float64 {
	sort.Float64s(res.AppendMS)
	sort.Float64s(res.LateMS)
	return map[string]float64{
		"live.append_p50_ms":      percentile(res.AppendMS, 50),
		"live.append_p95_ms":      percentile(res.AppendMS, 95),
		"live.append_late_p95_ms": percentile(res.LateMS, 95),
	}
}

// checkLiveFinal is live-mix's exact check: once the appender has stopped,
// every pool pattern's served count must equal the oracle over the base
// snapshot plus every acknowledged record.
func checkLiveFinal(q *querier, in *inputs, res *loadResult) error {
	acked := min(res.Acked*appendBatch, len(in.stream))
	final, err := wlog.New(append(in.base.Records(), in.stream[:acked]...))
	if err != nil {
		return err
	}
	ans, err := oracleAnswers(final)
	if err != nil {
		return err
	}
	exact := &querier{client: q.client, url: q.url, chk: staticChecker(ans)}
	var buf bytes.Buffer
	for i, p := range pool {
		req := request{i, p.spellings[0], "count"}
		res.Attempted++
		if _, _, problem := exact.do(req, &buf); problem != "" {
			res.fail("after %d acknowledged records, %s: %s", acked, req.Query, problem)
		}
	}
	return nil
}
