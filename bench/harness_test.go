package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"wlq"
	"wlq/internal/core/pattern"
)

func TestScheduleAndAppendStreamRepeatForASeed(t *testing.T) {
	build := func(seed int64) ([]byte, [][]byte) {
		sched, err := json.Marshal(schedule(evalMultiset(), seed))
		if err != nil {
			t.Fatal(err)
		}
		l, err := wlq.ClinicLog(smokeInstances, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, stream, err := splitLive(l, l.Len()/4)
		if err != nil {
			t.Fatal(err)
		}
		bodies, err := appendBodies(stream)
		if err != nil {
			t.Fatal(err)
		}
		return sched, bodies
	}
	s1, b1 := build(7)
	s2, b2 := build(7)
	if !bytes.Equal(s1, s2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("the same seed gave a different schedule or append stream")
	}
	s3, b3 := build(8)
	if bytes.Equal(s1, s3) || reflect.DeepEqual(b1, b3) {
		t.Fatal("a different seed gave the same schedule or append stream")
	}
	for i, body := range b1[:len(b1)-1] {
		if n := bytes.Count(body, []byte("\n")); n != appendBatch {
			t.Fatalf("batch %d has %d records, want %d", i, n, appendBatch)
		}
	}
}

func TestMultisets(t *testing.T) {
	if n := len(evalMultiset()); n != 4*len(pool)+4 {
		t.Errorf("eval multiset has %d requests", n)
	}
	hot := hotMultiset()
	spellings, keys := map[string]bool{}, map[string]bool{}
	for _, r := range hot {
		spellings[r.Query] = true
		keys[pattern.CanonicalKey(pattern.MustParse(r.Query))] = true
	}
	if len(keys) != len(hotPatterns) || len(spellings) <= len(keys) || len(spellings) > 32 {
		t.Errorf("hot multiset: %d keys, %d spellings", len(keys), len(spellings))
	}
	for _, p := range pool {
		want := pattern.CanonicalKey(pattern.MustParse(p.spellings[0]))
		for _, sp := range p.spellings[1:] {
			if got := pattern.CanonicalKey(pattern.MustParse(sp)); got != want {
				t.Errorf("%q canonicalises to %q, not %q", sp, got, want)
			}
		}
	}
	if got := warmPass(schedule(hot, 1)); len(got) != len(hotPatterns) {
		t.Errorf("warm pass has %d requests, want one per pattern", len(got))
	}
}

func TestPercentiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 7, 9}, 50); got != 7 {
		t.Errorf("median of three = %g", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median sorts a copy: got %g", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g (%d beyond)", c.n, got, c.want, beyond(c.n, got))
		}
	}
}

// fakeClock is driven by hand: Sleep advances it, plus a fixed oversleep.
type fakeClock struct {
	t         time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d + c.oversleep) }

func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const msec = time.Millisecond
	clk := &fakeClock{t: time.Unix(1000, 0), oversleep: 2 * msec}
	start := clk.t
	service := []time.Duration{30 * msec, 250 * msec, 30 * msec, 30 * msec, 30 * msec, 30 * msec}
	var sentAt []time.Duration
	lat, late, acked := openLoop(clk, start, start.Add(550*msec), 100*msec, 10, func(i int) bool {
		sentAt = append(sentAt, clk.t.Sub(start))
		clk.t = clk.t.Add(service[i])
		return true
	})
	// Batch 1 stalls for 250 ms; batches 2 and 3 were due during the stall
	// and are sent late through no fault of the generator, so the stall shows
	// in their latency and not in their lateness. Batches due at or after
	// the deadline (550 ms) are not sent.
	wantSent := []time.Duration{0, 102 * msec, 352 * msec, 382 * msec, 412 * msec, 502 * msec}
	wantLat := []float64{30, 252, 182, 112, 42, 32}
	wantLate := []float64{0, 2, 0, 0, 0, 2}
	if !reflect.DeepEqual(sentAt, wantSent) {
		t.Errorf("sent at %v, want %v", sentAt, wantSent)
	}
	if !reflect.DeepEqual(lat, wantLat) || !reflect.DeepEqual(late, wantLate) || acked != 6 {
		t.Errorf("latency %v lateness %v acked %d, want %v %v 6", lat, late, acked, wantLat, wantLate)
	}

	// The first refusal ends the stream: later lsns would not be the next.
	_, _, acked = openLoop(clk, clk.t, clk.t.Add(time.Second), 100*msec, 10, func(i int) bool { return i < 2 })
	if acked != 2 {
		t.Errorf("acked %d batches after a refusal at the third, want 2", acked)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Name: "parse", Parent: 1, Start: 5, End: 15},
		{ID: 3, Name: "eval", Parent: 1, Start: 20, End: 80},
		{ID: 4, Name: "join", Parent: 3, Start: 30, End: 50},
		{ID: 5, Name: "join", Parent: 3, Start: 40, End: 70},  // overlaps its sibling: counted once
		{ID: 6, Name: "late", Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped
	}
	want := map[int]int64{1: 100 - 10 - 60 - 10, 2: 10, 3: 60 - 40, 4: 20, 5: 30, 6: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	clk := &fakeClock{t: time.Unix(0, 0)}
	rec := newRecorder(clk.Now)
	root := rec.start("request", 3, 0)
	clk.Sleep(5)
	child := rec.timed("layer", 3, root, func() { clk.Sleep(20) })
	clk.Sleep(5)
	if total := rec.end(root); total != 30 || child != 20 {
		t.Errorf("recorded %v and %v, want 30ns and 20ns", total, child)
	}
	if got := selfTimes(rec.spans)[root]; got != 10 {
		t.Errorf("root self time %d, want 10", got)
	}
}

func TestCheckerCatchesWrongAnswers(t *testing.T) {
	l, err := wlq.ClinicLog(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := oracleAnswers(l)
	if err != nil {
		t.Fatal(err)
	}
	chk := staticChecker(ans)
	i := poolIndex("atom/rare")
	good := reply{Count: ans[i].Count, Exists: ans[i].Count > 0}
	if msg := chk.check(request{i, "GetReimburse", "count"}, good, false); msg != "" {
		t.Errorf("oracle's own answer rejected: %s", msg)
	}
	bad := good
	bad.Count++
	if chk.check(request{i, "GetReimburse", "count"}, bad, false) == "" {
		t.Error("a count off by one passed")
	}
	if chk.check(request{i, "GetReimburse", "instances"}, good, false) == "" {
		t.Error("an instances reply with no instances passed")
	}
	// The scalars may come in any order and after the arrays.
	body := []byte(`{"incidents":[{"wid":1,"seqs":[2,3]}],"exists":true,"elapsed_us":12,"count":1,"extra":{"a":[1]}}`)
	r, err := parseReply(body, "incidents", false)
	if err != nil || r.Count != 1 || !r.Exists || r.ElapsedUS != 12 || r.Incidents != nil {
		t.Errorf("parseReply = %+v, %v", r, err)
	}
	r, err = parseReply(body, "incidents", true)
	if err != nil || len(r.Incidents) != 1 || r.Incidents[0].Seqs[1] != 3 {
		t.Errorf("parseReply(full) = %+v, %v", r, err)
	}
	if _, err := parseReply([]byte(`{"count":1}`), "count", false); err == nil {
		t.Error("a reply without exists and elapsed_us parsed")
	}
}

// The reference factor is the samples' lower quartile over the nominal time,
// whatever their order, and the kernel's time is taken out of the pass it
// fell in before the pass's rate is worked out.
func TestReferenceFactorAndPausedTime(t *testing.T) {
	samples := []float64{40, 2 * refNominalMS, 30, 20, 31, 35, 33, 32} // the second smallest of eight
	if got := refFactor(samples); got != 2 {
		t.Errorf("refFactor = %g, want 2 (lower quartile %g ms over %g ms)", got, 2*refNominalMS, float64(refNominalMS))
	}
	t0 := time.Unix(0, 0)
	res := &loadResult{
		Origin: cycle{End: t0},
		Cycles: []cycle{{QueryMS: []float64{1, 2, 3, 4}, Paused: time.Second, End: t0.Add(3 * time.Second)}},
	}
	if got := cycleMetrics(res).QPS; len(got) != 1 || got[0] != 2 {
		t.Errorf("4 queries in 3 s with 1 s in the kernel: qps %v, want [2]", got)
	}
}
