package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
)

// The part driver's own suite: a scripted fleet behind Config.Transport and
// the recording Sleep seam, so every decision of the breaker-admit →
// attempt → classify → backoff → retry loop and of the Completeness fold is
// asserted without evaluating a pattern or opening a socket.

var errTransient = errors.New("transient fault")

// scriptedPart is one part of a scenario: its wids, how its breaker starts,
// and what each successive attempt meets — "transient" (a transport error),
// "fatal" (a 400) or "cancel" (the query's context dies in flight).
// Attempts past the script are answered with one incident per wid.
type scriptedPart struct {
	wids      []uint64
	tripped   bool // the breaker is already open when the query starts
	threshold int  // breaker threshold (0 = default 5)
	script    []string
}

// scriptedFleet answers worker i ("http://w<i>") from parts[i]'s script.
type scriptedFleet struct {
	parts  []scriptedPart
	cancel context.CancelFunc

	mu       sync.Mutex
	attempts map[int]int
}

func (f *scriptedFleet) RoundTrip(r *http.Request) (*http.Response, error) {
	var req WorkerQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, err
	}
	i := int(req.Self[len(req.Self)-1] - '0')
	f.mu.Lock()
	f.attempts[i]++
	n := f.attempts[i]
	f.mu.Unlock()
	reply := func(status int, body string) (*http.Response, error) {
		return &http.Response{StatusCode: status, Body: io.NopCloser(strings.NewReader(body))}, nil
	}
	if script := f.parts[i].script; n <= len(script) {
		switch script[n-1] {
		case "transient":
			return nil, errTransient
		case "fatal":
			return reply(http.StatusBadRequest, `{"error":"deterministic fault"}`)
		case "cancel":
			f.cancel()
			return nil, r.Context().Err()
		}
	}
	wids := f.parts[i].wids
	incs := make([]incident.Incident, len(wids))
	for j, wid := range wids {
		incs[j] = incident.New(wid, 1, 2)
	}
	return reply(http.StatusOK, shapedReplyBody(req, len(wids), incs))
}

type wantPart struct {
	attempts, retries int
	skipped, failed   bool
	breaker           BreakerState
}

type scatterCase struct {
	name        string
	parts       []scriptedPart
	maxAttempts int
	want        []wantPart
	slept       int    // backoff delays recorded
	errLike     string // substring of the returned error ("" = nil)
	complete    bool
}

func TestScatter(t *testing.T) {
	cases := []scatterCase{
		{
			name:        "first-try success",
			parts:       []scriptedPart{{wids: []uint64{1, 2}}, {wids: []uint64{3}}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 1}, {attempts: 1}},
			complete:    true,
		},
		{
			name:        "retry then success",
			parts:       []scriptedPart{{wids: []uint64{1, 2}, script: []string{"transient"}}, {wids: []uint64{3}}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 2, retries: 1}, {attempts: 1}},
			slept:       1,
			complete:    true,
		},
		{
			name:        "non-retryable error excludes the part after one attempt",
			parts:       []scriptedPart{{wids: []uint64{1, 2}}, {wids: []uint64{3, 5}, script: []string{"fatal"}}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 1}, {attempts: 1, failed: true}},
		},
		{
			name:        "attempts exhausted",
			parts:       []scriptedPart{{wids: []uint64{1}}, {wids: []uint64{2}, script: []string{"transient", "transient"}}},
			maxAttempts: 2,
			want:        []wantPart{{attempts: 1}, {attempts: 2, retries: 1, failed: true}},
			slept:       1,
		},
		{
			name:        "breaker already open skips the part",
			parts:       []scriptedPart{{wids: []uint64{1, 2}}, {wids: []uint64{3}, tripped: true}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 1}, {skipped: true, breaker: BreakerOpen}},
		},
		{
			name: "breaker opening mid-loop stops retries",
			parts: []scriptedPart{{wids: []uint64{1}}, {wids: []uint64{2}, threshold: 2,
				script: []string{"transient", "transient", "transient", "transient"}}},
			maxAttempts: 5,
			want:        []wantPart{{attempts: 1}, {attempts: 2, retries: 1, failed: true, breaker: BreakerOpen}},
			slept:       1,
		},
		{
			// Threshold 1: a single charged failure would open the breaker.
			name:        "cancelled parent context is not the part's fault",
			parts:       []scriptedPart{{wids: []uint64{1}, threshold: 1, script: []string{"cancel"}}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 1, failed: true, breaker: BreakerClosed}},
			errLike:     "context canceled",
		},
		{
			name:        "every part skipped",
			parts:       []scriptedPart{{wids: []uint64{1}, tripped: true}, {wids: []uint64{2}, tripped: true}},
			maxAttempts: 3,
			want:        []wantPart{{skipped: true, breaker: BreakerOpen}, {skipped: true, breaker: BreakerOpen}},
			errLike:     "skipped by open circuit breakers",
		},
		{
			name:        "every part failed returns the first failure",
			parts:       []scriptedPart{{wids: []uint64{1}, script: []string{"fatal"}}, {wids: []uint64{2}, script: []string{"fatal"}}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 1, failed: true}, {attempts: 1, failed: true}},
			errLike:     "worker http://w0: worker returned 400: deterministic fault",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every shape runs the same script against a fresh fleet: the
			// same outcomes, folded into the answer each shape asks for.
			for _, shape := range []eval.Shape{eval.ShapeIncidents, eval.ShapeInstances, eval.ShapeCount} {
				runScatterCase(t, tc, shape)
			}
		})
	}
}

func runScatterCase(t *testing.T, tc scatterCase, shape eval.Shape) {
	t.Helper()
	scripted := tc.parts
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wids    []uint64
		workers []string
		mu      sync.Mutex
		slept   []time.Duration
	)
	for i, sp := range scripted {
		wids = append(wids, sp.wids...)
		workers = append(workers, fmt.Sprintf("http://w%d", i))
	}
	parts := Partition(wids, len(workers))
	for i, p := range parts {
		if !slices.Equal(p.WIDs, scripted[i].wids) {
			t.Fatalf("scenario's part %d is %v, Partition makes it %v", i, scripted[i].wids, p.WIDs)
		}
	}
	c, err := New(Config{
		Workers:     workers,
		MaxAttempts: tc.maxAttempts,
		Transport:   &scriptedFleet{parts: scripted, cancel: cancel, attempts: make(map[int]int)},
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range scripted {
		c.workers[i].breaker = NewBreaker(sp.threshold, time.Hour)
		for sp.tripped && c.workers[i].breaker.State() == BreakerClosed {
			c.workers[i].breaker.Failure()
		}
	}

	var stats eval.QueryStats
	ans, comp, fan, err := c.Answer(ctx, "log", pattern.MustParse("A -> B"), shape, ExecOptions{WIDs: wids}, &stats)
	if tc.errLike == "" && err != nil {
		t.Fatalf("%v: err = %v, want nil", shape, err)
	}
	if tc.errLike != "" && (err == nil || !strings.Contains(err.Error(), tc.errLike)) {
		t.Fatalf("%v: err = %v, want one containing %q", shape, err, tc.errLike)
	}
	if len(slept) != tc.slept {
		t.Errorf("%v: backoff delays = %v, want %d of them", shape, slept, tc.slept)
	}
	for _, d := range slept {
		if lo, hi := delay(1, 0), delay(1, 1); d < lo || d >= hi {
			t.Errorf("%v: backoff delay %v, want the first retry's, in [%v, %v)", shape, d, lo, hi)
		}
	}
	var wantWIDs []uint64
	wantComp := Completeness{Shards: len(parts)}
	failures := 0
	for i, w := range tc.want {
		call := fan.PerWorker[i]
		if call.Attempts != w.attempts || call.Retries != w.retries || call.BreakerSkip != w.skipped || (call.Error != "") != (w.failed || w.skipped) {
			t.Errorf("%v: part %d: %+v, want %+v", shape, i, call, w)
		}
		if st := c.workers[i].breaker.State(); st != w.breaker {
			t.Errorf("%v: part %d: breaker %v, want %v", shape, i, st, w.breaker)
		}
		wantComp.Retries += w.retries
		switch {
		case w.skipped:
			wantComp.Skipped++
		case w.failed:
			wantComp.Attempted++
			wantComp.Failed++
		default:
			wantComp.Attempted++
			wantComp.Succeeded++
			wantWIDs = append(wantWIDs, parts[i].WIDs...)
			continue
		}
		wantComp.ExcludedWIDs += len(parts[i].WIDs)
		// The excluded part is named: id, interval, attempts, cause and owner.
		f := comp.Failures[failures]
		failures++
		if f.Shard != i || f.WIDMin != parts[i].MinWID || f.WIDMax != parts[i].MaxWID || f.WIDs != len(parts[i].WIDs) ||
			f.Attempts != w.attempts || f.Skipped != w.skipped || f.Cause != call.Error || f.Worker != workers[i] {
			t.Errorf("%v: failure %+v does not describe part %d (%+v)", shape, f, i, w)
		}
	}
	wantComp.Complete = tc.complete
	got := *comp
	got.Failures = nil
	if !reflect.DeepEqual(got, wantComp) || len(comp.Failures) != failures {
		t.Errorf("%v: completeness = %+v (%d failures), want %+v (%d failures)", shape, got, len(comp.Failures), wantComp, failures)
	}
	if stats.Workers != len(parts) {
		t.Errorf("%v: stats = %+v, want %d workers", shape, stats, len(parts))
	}
	if err != nil {
		return
	}
	// One incident per surviving wid: the surviving parts' sum and
	// concatenation.
	if ans.Count != len(wantWIDs) || stats.Incidents != len(wantWIDs) || stats.Instances != len(wantWIDs) {
		t.Errorf("%v: count %d, stats %+v; want %d", shape, ans.Count, stats, len(wantWIDs))
	}
	switch shape {
	case eval.ShapeIncidents:
		want := make([]incident.Incident, len(wantWIDs))
		for i, wid := range wantWIDs {
			want[i] = incident.New(wid, 1, 2)
		}
		if got := joined(ans.Wire); !bytes.Equal(got, incident.AppendWire(nil, want)) || ans.WIDs != nil {
			t.Errorf("merged incidents %s (wids %v), want one incident in each of %v", got, ans.WIDs, wantWIDs)
		}
	case eval.ShapeInstances:
		if !slices.Equal(ans.WIDs, wantWIDs) || ans.Wire != nil {
			t.Errorf("merged wids %v (incidents %s), want %v", ans.WIDs, ans.Wire, wantWIDs)
		}
	default:
		if ans.WIDs != nil || ans.Wire != nil {
			t.Errorf("a count came with %+v", ans)
		}
	}
}
