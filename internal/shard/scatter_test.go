package shard

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
)

// The driver's own suite: a scripted fake transport and the recording
// Sleep / fixed Rand seams, so every decision of the breaker-admit →
// attempt → classify → backoff → retry loop and of the Completeness fold is
// asserted without evaluating a pattern or opening a socket. The parts are
// named like the cluster's (a worker URL each), and the scenarios carry the
// suffix of the one tier left, "remote".

var (
	errTransient = errors.New("transient fault")
	errFatal     = errors.New("deterministic fault")
)

// scriptedPart is one part of a scenario: its wids, how its breaker starts,
// and the error each successive attempt returns (attempts past the script
// succeed with one incident per wid).
type scriptedPart struct {
	wids      []uint64
	tripped   bool // the breaker is already open when the query starts
	threshold int  // breaker threshold (0 = default 5)
	errs      []error
}

type wantPart struct {
	attempts, retries int
	skipped, failed   bool
	breaker           BreakerState
}

func TestShardScatter(t *testing.T) {
	cases := []struct {
		name        string
		parts       []scriptedPart
		maxAttempts int
		// cancelOn, when positive, cancels the query context inside that
		// attempt of part 0, which then returns the context's error.
		cancelOn int
		want     []wantPart
		slept    int    // backoff delays recorded
		errLike  string // substring of the returned error ("" = nil)
		complete bool
	}{
		{
			name:        "first-try success",
			parts:       []scriptedPart{{wids: []uint64{1, 2}}, {wids: []uint64{3}}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 1}, {attempts: 1}},
			complete:    true,
		},
		{
			name:        "retry then success",
			parts:       []scriptedPart{{wids: []uint64{1, 2}, errs: []error{errTransient}}, {wids: []uint64{3}}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 2, retries: 1}, {attempts: 1}},
			slept:       1,
			complete:    true,
		},
		{
			name:        "non-retryable error excludes the part after one attempt",
			parts:       []scriptedPart{{wids: []uint64{1, 2}}, {wids: []uint64{3, 5}, errs: []error{errFatal}}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 1}, {attempts: 1, failed: true}},
		},
		{
			name:        "attempts exhausted",
			parts:       []scriptedPart{{wids: []uint64{1}}, {wids: []uint64{2}, errs: []error{errTransient, errTransient}}},
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
				errs: []error{errTransient, errTransient, errTransient, errTransient}}},
			maxAttempts: 5,
			want:        []wantPart{{attempts: 1}, {attempts: 2, retries: 1, failed: true, breaker: BreakerOpen}},
			slept:       1,
		},
		{
			// Threshold 1: a single charged failure would open the breaker.
			name:        "cancelled parent context is not the part's fault",
			parts:       []scriptedPart{{wids: []uint64{1}, threshold: 1}},
			maxAttempts: 3,
			cancelOn:    1,
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
			parts:       []scriptedPart{{wids: []uint64{1}, errs: []error{errFatal}}, {wids: []uint64{2}, errs: []error{errFatal}}},
			maxAttempts: 3,
			want:        []wantPart{{attempts: 1, failed: true}, {attempts: 1, failed: true}},
			errLike:     errFatal.Error(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/remote", func(t *testing.T) {
			var (
				mu    sync.Mutex
				slept []time.Duration
			)
			sc := &Scatter{
				RetryPolicy: RetryPolicy{
					MaxAttempts: tc.maxAttempts,
					Sleep: func(d time.Duration) {
						mu.Lock()
						slept = append(slept, d)
						mu.Unlock()
					},
					Rand: func() float64 { return 0.5 }, // jitter factor exactly 1
				},
				Retryable: func(err error) bool { return errors.Is(err, errTransient) },
			}
			parts := make([]Part, len(tc.parts))
			for i, sp := range tc.parts {
				parts[i] = Part{
					Shard:   Shard{ID: i, WIDs: sp.wids, MinWID: sp.wids[0], MaxWID: sp.wids[len(sp.wids)-1]},
					Worker:  "http://w" + string(rune('0'+i)),
					Breaker: NewBreaker(sp.threshold, time.Hour),
				}
				if sp.tripped {
					for parts[i].Breaker.State() == BreakerClosed {
						parts[i].Breaker.Failure()
					}
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Every part answers in all three shapes at once, so one gather
			// feeds a Merge per shape.
			transport := func(ctx context.Context, i, n int) (PartAnswer, error) {
				if i == 0 && n == tc.cancelOn {
					cancel()
					return PartAnswer{}, ctx.Err()
				}
				if script := tc.parts[i].errs; n <= len(script) {
					return PartAnswer{}, script[n-1]
				}
				var incs []incident.Incident
				for _, wid := range parts[i].WIDs {
					incs = append(incs, incident.Singleton(wid, 1))
				}
				return PartAnswer{Count: len(incs), WIDs: parts[i].WIDs, Incidents: incs, Instances: len(incs)}, nil
			}

			results := sc.Gather(ctx, parts, transport)
			var stats eval.QueryStats
			ans, comp, err := Merge(ctx, parts, results, eval.ShapeIncidents, &stats)
			set := ans.Set

			if tc.errLike == "" && err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
			if tc.errLike != "" && (err == nil || !strings.Contains(err.Error(), tc.errLike)) {
				t.Fatalf("err = %v, want one containing %q", err, tc.errLike)
			}
			if len(slept) != tc.slept {
				t.Errorf("backoff delays = %v, want %d of them", slept, tc.slept)
			}
			for _, d := range slept {
				if d != DefaultBackoffBase {
					t.Errorf("backoff delay %v, want the %v base (first retry, jitter factor 1)", d, DefaultBackoffBase)
				}
			}
			var wantSet []incident.Incident
			wantComp := Completeness{Shards: len(parts)}
			failures := 0
			for i, w := range tc.want {
				r := results[i]
				if r.Attempts != w.attempts || r.Retries != w.retries || r.Skipped != w.skipped || (r.Err != nil) != (w.failed || w.skipped) {
					t.Errorf("part %d: attempts=%d retries=%d skipped=%v err=%v, want %+v", i, r.Attempts, r.Retries, r.Skipped, r.Err, w)
				}
				if st := parts[i].Breaker.State(); st != w.breaker {
					t.Errorf("part %d: breaker %v, want %v", i, st, w.breaker)
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
					for _, wid := range parts[i].WIDs {
						wantSet = append(wantSet, incident.Singleton(wid, 1))
					}
					continue
				}
				wantComp.ExcludedWIDs += len(parts[i].WIDs)
				// The excluded part is named: id, interval, attempts, cause
				// and owner.
				f := comp.Failures[failures]
				failures++
				if f.Shard != i || f.WIDMin != parts[i].MinWID || f.WIDMax != parts[i].MaxWID || f.WIDs != len(parts[i].WIDs) ||
					f.Attempts != w.attempts || f.Skipped != w.skipped || f.Cause != r.Err.Error() || f.Worker != parts[i].Worker {
					t.Errorf("failure %+v does not describe part %d (%+v)", f, i, w)
				}
			}
			wantComp.Complete = tc.complete
			got := *comp
			got.Failures = nil
			if !reflect.DeepEqual(got, wantComp) || len(comp.Failures) != failures {
				t.Errorf("completeness = %+v (%d failures), want %+v (%d failures)", got, len(comp.Failures), wantComp, failures)
			}
			if stats.Workers != len(parts) {
				t.Errorf("stats = %+v, want %d workers", stats, len(parts))
			}
			if err == nil {
				if want := incident.NewSet(wantSet...); !set.Equal(want) {
					t.Errorf("merged set %s, want %s", set, want)
				}
				if stats.Incidents != len(wantSet) || stats.Instances != len(wantSet) {
					t.Errorf("stats incidents/instances = %d/%d, want %d", stats.Incidents, stats.Instances, len(wantSet))
				}
				// The cheaper shapes of the same outcomes: the surviving
				// parts' sum and concatenation, under the same completeness.
				for _, shape := range []eval.Shape{eval.ShapeInstances, eval.ShapeCount} {
					a, c, err := Merge(ctx, parts, results, shape, nil)
					if err != nil || a.Count != len(wantSet) || a.Set != nil || !reflect.DeepEqual(c, comp) {
						t.Errorf("%v: merged %+v, %v, completeness %+v; want count %d under %+v", shape, a, err, c, len(wantSet), comp)
					}
					if shape == eval.ShapeInstances && !slices.Equal(a.WIDs, set.WIDs()) {
						t.Errorf("merged wids %v, want %v", a.WIDs, set.WIDs())
					}
				}
			}
		})
	}
}
