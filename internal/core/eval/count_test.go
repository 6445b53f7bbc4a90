package eval

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"wlq/internal/core/pattern"
	"wlq/internal/gen"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// TestCountFastPathMatchesEval: for every atomic-pair shape (counted by the
// closed formulas of countAtomicPair), Count must equal Eval().Len() on
// randomized logs — including the tricky parallel dedup case where both
// atoms match shared records.
func TestCountFastPathMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	alphabet := []string{"A", "B"}
	queries := []string{
		"A . B", "A . A", "B . A",
		"A -> B", "A -> A",
		"A | B", "A | A", "A | !B", "!A | !B",
		"A & B", "A & A", "!A & !B", "!A & A", "!A & !A",
	}
	for trial := 0; trial < 80; trial++ {
		var b wlog.Builder
		numInst := 1 + rng.Intn(3)
		wids := make([]uint64, numInst)
		for i := range wids {
			wids[i] = b.Start()
		}
		for step := 0; step < 3+rng.Intn(9); step++ {
			wid := wids[rng.Intn(numInst)]
			if err := b.Emit(wid, alphabet[rng.Intn(2)], nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		l := b.MustBuild()
		e := New(NewIndex(l), Options{})
		for _, q := range queries {
			p := pattern.MustParse(q)
			fast := e.Count(p)
			slow := e.Eval(p).Len()
			if fast != slow {
				t.Fatalf("trial %d: Count(%s) = %d, Eval = %d on\n%s", trial, q, fast, slow, l)
			}
		}
	}
}

func TestCountGuardedAtoms(t *testing.T) {
	var b wlog.Builder
	w := b.Start()
	for i, amount := range []int{100, 6000, 7000, 50} {
		_ = i
		if err := b.Emit(w, "Pay", nil, wlog.Attrs("amount", amount)); err != nil {
			t.Fatal(err)
		}
	}
	l := b.MustBuild()
	e := New(NewIndex(l), Options{})
	p := pattern.MustParse("Pay[amount>5000] -> Pay[amount>5000]")
	if got := e.Count(p); got != 1 { // (6000, 7000)
		t.Errorf("guarded fast count = %d, want 1", got)
	}
	if got := e.Eval(p).Len(); got != 1 {
		t.Errorf("guarded eval = %d, want 1", got)
	}
}

func TestCountFallsBackForComposites(t *testing.T) {
	l := buildLog(t, []string{"A", "B", "A", "B"})
	e := New(NewIndex(l), Options{})
	p := pattern.MustParse("(A . B) -> (A . B)")
	if got := e.Count(p); got != e.Eval(p).Len() {
		t.Errorf("composite Count = %d, Eval = %d", got, e.Eval(p).Len())
	}
}

// TestCountFastPathIsGuarded: a counted plan checks ctx, and with it the
// wall-time budget, once per instance, like every other entry point.
func TestCountFastPathIsGuarded(t *testing.T) {
	ix := NewIndex(buildLog(t, []string{"A", "B"}, []string{"A", "B"}))
	p := pattern.MustParse("A -> B")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n, err := New(ix, Options{}).CountCtx(ctx, p); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: CountCtx = %d, %v; want context.Canceled", n, err)
	}

	e := New(ix, Options{Budget: resilience.Budget{MaxWallTime: time.Nanosecond}})
	var be *resilience.BudgetError
	if n, err := e.CountCtx(context.Background(), p); !errors.As(err, &be) || be.Dimension != resilience.DimWallTime {
		t.Errorf("expired wall time: CountCtx = %d, %v; want wall-time budget error", n, err)
	}
}

func BenchmarkCountFastVsMaterialized(b *testing.B) {
	l := gen.Blocks("A", 2000, "B", 2000)
	ix := NewIndex(l)
	e := New(ix, Options{})
	p := pattern.MustParse("A -> B") // 4M incidents if materialized
	b.Run("fast-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if e.Count(p) != 4000000 {
				b.Fatal("wrong count")
			}
		}
	})
}
