package eval

import (
	"math/rand"
	"testing"

	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

func TestEvalParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alphabet := []string{"A", "B", "C"}
	for trial := 0; trial < 40; trial++ {
		var b wlog.Builder
		numInst := 1 + rng.Intn(8)
		wids := make([]uint64, numInst)
		for i := range wids {
			wids[i] = b.Start()
		}
		for step := 0; step < 5+rng.Intn(30); step++ {
			wid := wids[rng.Intn(numInst)]
			if err := b.Emit(wid, alphabet[rng.Intn(len(alphabet))], nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		l := b.MustBuild()
		ix := NewIndex(l)
		e := New(ix, Options{})
		p := randomPattern(rng, 3, alphabet)

		serial := e.Eval(p)
		for _, workers := range []int{0, 1, 2, 4, 100} {
			par := e.EvalParallel(p, workers)
			if !serial.Equal(par) {
				t.Fatalf("trial %d workers=%d: parallel differs on %s:\nserial: %s\npar:    %s",
					trial, workers, p, serial, par)
			}
		}
		if e.Exists(p) != (serial.Len() > 0) {
			t.Fatalf("trial %d: Exists wrong for %s", trial, p)
		}
	}
}

func TestEvalParallelEmptyPatternResult(t *testing.T) {
	l := buildLog(t, []string{"A"}, []string{"B"})
	e := New(NewIndex(l), Options{})
	p := pattern.MustParse("Z -> Z")
	if got := e.EvalParallel(p, 4); got.Len() != 0 {
		t.Errorf("EvalParallel = %s, want empty", got)
	}
	if e.Exists(p) {
		t.Error("Exists = true on empty result")
	}
}

func TestEvalParallelManyInstances(t *testing.T) {
	// More instances than workers; every instance matches, so Exists must
	// stop early without deadlocking the feeder.
	traces := make([][]string, 64)
	for i := range traces {
		traces[i] = []string{"A", "B"}
	}
	l := buildLog(t, traces...)
	e := New(NewIndex(l), Options{})
	p := pattern.MustParse("A . B")
	if !e.Exists(p) {
		t.Error("Exists = false")
	}
	set := e.EvalParallel(p, 4)
	if set.Len() != 64 {
		t.Errorf("EvalParallel found %d incidents, want 64", set.Len())
	}
	// Canonical order must hold without a re-sort.
	for i := 1; i < set.Len(); i++ {
		if set.At(i-1).Compare(set.At(i)) >= 0 {
			t.Fatal("parallel result not in canonical order")
		}
	}
}

func BenchmarkEvalParallel(b *testing.B) {
	traces := make([][]string, 200)
	for i := range traces {
		traces[i] = make([]string, 40)
		for j := range traces[i] {
			traces[i][j] = []string{"A", "B", "C"}[(i+j)%3]
		}
	}
	var bld wlog.Builder
	wids := make([]uint64, len(traces))
	for i := range traces {
		wids[i] = bld.Start()
	}
	for step := 0; step < 40; step++ {
		for i := range traces {
			if err := bld.Emit(wids[i], traces[i][step], nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	l := bld.MustBuild()
	ix := NewIndex(l)
	e := New(ix, Options{})
	p := pattern.MustParse("A -> (B & C)")
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Eval(p)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.EvalParallel(p, 0)
		}
	})
}
