package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/shard"
)

// fakeWorker answers POST /v1/worker/query with a well-formed envelope —
// the ring echo the coordinator cross-checks included — around whatever
// incidents(owned) returns, and counts the requests it served.
func fakeWorker(t *testing.T, wids []uint64, incidents func(owned []uint64) string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		var req WorkerQueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ring := NewRing(req.Ring, req.Replicas)
		owned := ring.OwnedWIDs(wids, ring.WorkerIndex(req.Self))
		fmt.Fprintf(w, `{"worker":%q,"wids_owned":%d,"instances":%d,"incidents":%s,"elapsed_us":1}`,
			req.Self, len(owned), len(owned), incidents(owned))
	}))
	t.Cleanup(ts.Close)
	return ts, &served
}

// oneIncidentPerWID is an honest worker's answer: {wid, [1,2]} per owned wid.
func oneIncidentPerWID(owned []uint64) string {
	incs := make([]incident.Incident, len(owned))
	for i, wid := range owned {
		incs[i] = incident.New(wid, 1, 2)
	}
	return string(AppendIncidents(nil, incs))
}

// TestMalformedWorkerReplyLosesThePart: anything can answer on a worker
// port. A reply whose incidents break Definition 4 — no records, a repeated
// record, records out of order — used to panic in incident.New on a gather
// goroutine and take the coordinator down; now it is a failed part, named in
// the completeness, and not retried (the same reply would come back).
func TestMalformedWorkerReplyLosesThePart(t *testing.T) {
	wids := testWIDs(64)
	for name, seqs := range map[string]string{"empty": "[]", "duplicate": "[3,3]", "decreasing": "[5,2]"} {
		t.Run(name, func(t *testing.T) {
			good, _ := fakeWorker(t, wids, oneIncidentPerWID)
			bad, badServed := fakeWorker(t, wids, func(owned []uint64) string {
				return fmt.Sprintf(`[{"wid":%d,"seqs":%s}]`, owned[0], seqs)
			})
			c, err := New(Config{
				Workers:     []string{good.URL, bad.URL},
				RetryPolicy: shard.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}},
			})
			if err != nil {
				t.Fatal(err)
			}
			asn := c.Ring().Assignments(wids)
			if len(asn[0]) == 0 || len(asn[1]) == 0 {
				t.Skip("degenerate ring layout: one worker owns every wid")
			}
			set, comp, fan, err := c.Execute(context.Background(), "log", pattern.MustParse("A -> B"), ExecOptions{WIDs: wids}, nil)
			if err != nil {
				t.Fatalf("one malformed reply failed the whole query: %v", err)
			}
			if set.Len() != len(asn[0]) {
				t.Errorf("merged %d incidents, the good worker sent %d", set.Len(), len(asn[0]))
			}
			if comp.Complete || comp.Failed != 1 || comp.ExcludedWIDs != len(asn[1]) || len(comp.Failures) != 1 {
				t.Fatalf("completeness = %+v, want exactly the bad worker's %d wids lost", comp, len(asn[1]))
			}
			lost := comp.Failures[0]
			if lost.Worker != bad.URL || !strings.Contains(lost.Cause, ErrMalformedIncidents.Error()) {
				t.Errorf("lost part = %+v, want %s with a malformed-incidents cause", lost, bad.URL)
			}
			if lost.Attempts != 1 || badServed.Load() != 1 || fan.Retries != 0 {
				t.Errorf("malformed reply was retried: attempts %d, requests served %d, retries %d",
					lost.Attempts, badServed.Load(), fan.Retries)
			}
		})
	}
}

// TestCoordinatorReadsAnIndentedReply: a worker one release behind still
// indents its replies; the coordinator reads them all the same.
func TestCoordinatorReadsAnIndentedReply(t *testing.T) {
	wids := testWIDs(16)
	w, _ := fakeWorker(t, wids, func(owned []uint64) string {
		var buf bytes.Buffer
		if err := json.Indent(&buf, []byte(oneIncidentPerWID(owned)), "  ", "  "); err != nil {
			t.Error(err)
		}
		return buf.String()
	})
	c, err := New(Config{Workers: []string{w.URL}})
	if err != nil {
		t.Fatal(err)
	}
	set, comp, _, err := c.Execute(context.Background(), "log", pattern.MustParse("A -> B"), ExecOptions{WIDs: wids}, nil)
	if err != nil || !comp.Complete || set.Len() != len(wids) {
		t.Fatalf("set %v, completeness %+v, err %v", set, comp, err)
	}
}
