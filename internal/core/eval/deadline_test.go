package eval_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/gen"
)

// TestDeadlineStopsAJoin: one Theorem 1 instance (m = 48, k = 3) takes far
// longer than 20 ms to evaluate, all of it inside one instance's joins. The
// scan's context is polled there too, so a 20 ms deadline stops it promptly,
// with the context's error and no answer, in the incidents and the count
// shape alike.
func TestDeadlineStopsAJoin(t *testing.T) {
	src := colstore.Build(gen.WorstCaseLog(48))
	p := gen.WorstCasePattern(3)
	for _, shape := range []eval.Shape{eval.ShapeIncidents, eval.ShapeCount} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		a, err := eval.New(src, eval.Options{}).AnswerCtx(ctx, p, src.WIDs(), 1, shape, nil)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: err = %v (count %d), want context.DeadlineExceeded", shape, err, a.Count)
		}
		if took > 200*time.Millisecond {
			t.Errorf("%v: the deadline stopped the join after %v, want within 200ms", shape, took)
		}
		if a.Incidents != nil {
			t.Errorf("%v: a stopped scan answered incidents", shape)
		}
	}
}
