package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the load generator; the accounting tests
// substitute a hand-driven one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep spins through the last spinWindow of the wait: on a machine the
// servers keep busy a sleeping thread wakes milliseconds late, which would
// show up as generator lateness in the open loop.
func (wallClock) Sleep(d time.Duration) {
	end := time.Now().Add(d)
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(end) {
	}
}

const spinWindow = 3 * time.Millisecond

// loadResult is what one measured window produced.
type loadResult struct {
	QueryMS   []float64 // client-observed latency of each correct query, full body read
	NonEvalMS []float64 // the same minus the response's own elapsed_us: queue, encode tail and wire
	AppendMS  []float64 // batch latency from its due time to the 200
	LateMS    []float64 // how late the generator itself sent each batch
	Attempted int
	Failed    int
	Failures  []string  // the first few, for the report
	Acked     int       // append batches acknowledged
	RefMS     []float64 // the reference kernel's samples, see refkernel.go
	Window    time.Duration
	Origin    cycle   // the window's start: the boundary before the first pass
	Cycles    []cycle // the completed passes over the schedule, in order
}

// cycle is one completed pass over the schedule. Every pass sends the same
// multiset of requests, so passes are comparable with each other and a
// metric can be reported as the median over them, which a burst of noise
// from the machine moves far less than it moves a figure pooled over the run.
type cycle struct {
	QueryMS []float64     // latencies of the pass's correct queries
	Paused  time.Duration // spent in the reference kernel between its requests
	End     time.Time     // when its last request was answered
	CPUMS   float64       // the servers' cumulative CPU time at End
	Acked   int           // append batches acknowledged by End
}

func (r *loadResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// newClient is the benchmark's one HTTP client: at most conns connections to
// the server, kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
}

// querier posts scheduled queries and checks the replies.
type querier struct {
	client    *http.Client
	url       string
	chk       checker
	incidents int // incidents replies seen, for the every-16th digest
}

// do sends one query and returns its latency and the parsed reply. buf is the
// caller's reusable body buffer. A non-empty problem is a failed operation.
func (q *querier) do(req request, buf *bytes.Buffer) (latency time.Duration, r reply, problem string) {
	body, _ := json.Marshal(map[string]string{"log": logName, "query": req.Query, "mode": req.Mode})
	start := time.Now()
	resp, err := q.client.Post(q.url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, r, "transport: " + err.Error()
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	latency = time.Since(start)
	if err != nil {
		return latency, r, "read body: " + err.Error()
	}
	if resp.StatusCode != http.StatusOK { // 206 is a degraded answer: a failure here
		return latency, r, fmt.Sprintf("status %d: %.120s", resp.StatusCode, buf.Bytes())
	}
	full := false
	if req.Mode == "incidents" {
		q.incidents++
		full = q.incidents%digestEvery == 0
	}
	r, err = parseReply(buf.Bytes(), req.Mode, full)
	if err != nil {
		return latency, r, "decode: " + err.Error()
	}
	return latency, r, q.chk.check(req, r, full)
}

// closedLoop is one client that sends its next request only after the
// previous answer is fully read, walking sched cyclically. It always
// completes a pass and stops at the first pass boundary at or after the
// deadline, so every run measures whole passes over the mix. atEnd, when
// non-nil, is sampled as each pass completes. Before the first request and
// then every refPeriod, between two requests, it times the reference kernel.
func closedLoop(clk clock, q *querier, sched []request, deadline time.Time, res *loadResult, atEnd func(*cycle)) {
	var buf bytes.Buffer
	var lastRef time.Time
	for i := 0; i == 0 || i%len(sched) != 0 || clk.Now().Before(deadline); i++ {
		if i%len(sched) == 0 {
			res.Cycles = append(res.Cycles, cycle{})
		}
		cy := &res.Cycles[len(res.Cycles)-1]
		if clk.Now().Sub(lastRef) >= refPeriod {
			d := refKernel()
			res.RefMS = append(res.RefMS, ms(d))
			cy.Paused += d
			lastRef = clk.Now()
		}
		req := sched[i%len(sched)]
		lat, r, problem := q.do(req, &buf)
		res.Attempted++
		if problem != "" {
			res.fail("%s [%s]: %s", req.Query, req.Mode, problem)
		} else {
			res.QueryMS = append(res.QueryMS, ms(lat))
			cy.QueryMS = append(cy.QueryMS, ms(lat))
			res.NonEvalMS = append(res.NonEvalMS, ms(lat)-float64(r.ElapsedUS)/1000)
		}
		if (i+1)%len(sched) == 0 {
			cy.End = clk.Now()
			if atEnd != nil {
				atEnd(cy)
			}
		}
	}
}

// openLoop sends batch i when it is due, start + i×period, whether or not the
// server kept up; with one connection a batch also waits for the one before
// it. Latency runs from the due time, so a stall is charged to every batch it
// delays. Lateness is the generator's own: how long after the batch could
// first have been sent (due, or the previous answer if later) it was sent.
// send reports whether the batch was acknowledged; the first refusal ends the
// stream, because later lsns would no longer be the next ones.
func openLoop(clk clock, start, deadline time.Time, period time.Duration, batches int, send func(i int) bool) (latMS, lateMS []float64, acked int) {
	prevDone := start
	for i := 0; i < batches; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			break
		}
		if now := clk.Now(); now.Before(due) {
			clk.Sleep(due.Sub(now))
		}
		earliest := due
		if prevDone.After(due) {
			earliest = prevDone
		}
		lateMS = append(lateMS, ms(clk.Now().Sub(earliest)))
		ok := send(i)
		prevDone = clk.Now()
		if !ok {
			break
		}
		acked++
		latMS = append(latMS, ms(prevDone.Sub(due)))
	}
	return latMS, lateMS, acked
}

// postAppend sends one batch and reports whether all of it was accepted.
func postAppend(client *http.Client, url string, body []byte) (bool, string) {
	resp, err := client.Post(url+"/v1/logs/"+logName+"/append", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return false, "transport: " + err.Error()
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("status %d: %.120s", resp.StatusCode, data)
	}
	return true, ""
}

// drive runs one measured window: the closed-loop query client and, when
// bodies is non-nil, the open-loop appender beside it. cpu reads the
// servers' cumulative CPU time.
func drive(q *querier, sched []request, bodies [][]byte, seconds float64, cpu func() float64) *loadResult {
	res := &loadResult{}
	clk := wallClock{}
	start := clk.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	var app loadResult
	var acked atomic.Int64
	if bodies != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			period := time.Second / appendRate
			app.AppendMS, app.LateMS, app.Acked = openLoop(clk, start, deadline, period, len(bodies), func(i int) bool {
				app.Attempted++
				ok, problem := postAppend(q.client, q.url, bodies[i])
				if ok {
					acked.Add(1)
				} else {
					app.fail("append batch %d: %s", i, problem)
				}
				return ok
			})
		}()
	}
	res.Origin = cycle{End: start, CPUMS: cpu()}
	closedLoop(clk, q, sched, deadline, res, func(cy *cycle) {
		cy.CPUMS, cy.Acked = cpu(), int(acked.Load())
	})
	wg.Wait()
	res.Window = clk.Now().Sub(start)
	res.AppendMS, res.LateMS, res.Acked = app.AppendMS, app.LateMS, app.Acked
	res.Attempted += app.Attempted
	res.Failed += app.Failed
	res.Failures = append(res.Failures, app.Failures...)
	return res
}

// serverCounters are the /metrics figures the per-layer ratios come from.
type serverCounters struct {
	QueriesTotal uint64 `json:"queries_total"`
	QueriesShed  uint64 `json:"queries_shed"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
}

func readCounters(client *http.Client, url string) (serverCounters, error) {
	var c serverCounters
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return c, json.NewDecoder(resp.Body).Decode(&c)
}
