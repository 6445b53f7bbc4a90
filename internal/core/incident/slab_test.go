package incident

import (
	"math/rand"
	"testing"
)

// randomIncident draws an incident of wid 1 with up to n records among the
// is-lsns 1..4n.
func randomIncident(rng *rand.Rand, n int) Incident {
	seen := map[uint64]bool{}
	var seqs []uint64
	for k := 1 + rng.Intn(n); len(seqs) < k; {
		if s := uint64(1 + rng.Intn(4*n)); !seen[s] {
			seen[s] = true
			seqs = append(seqs, s)
		}
	}
	return New(1, seqs...)
}

// TestSlabMatchesAllocatingOps: what a slab carves equals what Concat, Union
// and a copy allocate, across block boundaries and a Reset; every carved
// slice is capacity-clipped; and what was carved before stays as it was
// while later incidents are carved after it.
func TestSlabMatchesAllocatingOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Slab
	for round := 0; round < 3; round++ {
		var got, want []Incident
		for i := 0; i < 3000; i++ {
			a, b := randomIncident(rng, 8), randomIncident(rng, 8)
			if u, ok := a.Union(b); ok {
				v, vok := s.Union(a, b)
				if !vok {
					t.Fatalf("Slab.Union(%v, %v) failed; Union = %v", a, b, u)
				}
				got, want = append(got, v), append(want, u)
			} else if _, vok := s.Union(a, b); vok {
				t.Fatalf("Slab.Union(%v, %v) of overlapping incidents succeeded", a, b)
			}
			if a.Last() < b.First() {
				got, want = append(got, s.Concat(a, b)), append(want, a.Concat(b))
			}
			got, want = append(got, s.Copy(a)), append(want, a)
		}
		for i := range got {
			if !got[i].Equal(want[i]) || cap(got[i].seqs) != len(got[i].seqs) {
				t.Fatalf("round %d, incident %d: carved %v (cap %d), want %v", round, i, got[i], cap(got[i].seqs), want[i])
			}
		}
		s.Reset()
	}
	if len(s.blocks) < 2 {
		t.Errorf("%d blocks: the test never crossed a block boundary", len(s.blocks))
	}
}

// TestSlabUnionGivesSpaceBack: a Union that finds a shared record leaves
// the slab as it was, so the next incident is carved where the merge began.
func TestSlabUnionGivesSpaceBack(t *testing.T) {
	var s Slab
	first := s.Copy(New(1, 1, 2))
	if _, ok := s.Union(New(1, 3, 5, 7), New(1, 4, 7)); ok {
		t.Fatal("Union of incidents sharing is-lsn 7 succeeded")
	}
	next := s.Copy(New(1, 9))
	if len(s.blocks) != 1 || len(s.blocks[0]) != 3 || &s.blocks[0][2] != &next.seqs[0] || !first.Equal(New(1, 1, 2)) {
		t.Errorf("after a failed Union the slab holds %v; next incident %v is not carved right after %v", s.blocks, next, first)
	}
}

// TestSlabResetReusesBlocks: once a slab has held an instance's worth of
// incidents, holding as many again after Reset allocates nothing — also an
// incident larger than a block.
func TestSlabResetReusesBlocks(t *testing.T) {
	big := make([]uint64, 3*maxBlock)
	for i := range big {
		big[i] = uint64(i + 1)
	}
	a, b, huge := New(1, 1, 2, 3), New(1, 4, 5), Adopt(1, big)
	var s Slab
	fill := func() {
		s.Reset()
		for i := 0; i < 5000; i++ {
			s.Concat(a, b)
		}
		if got := s.Copy(huge); got.Len() != len(big) || got.Last() != uint64(len(big)) {
			t.Fatalf("a %d-record incident copied as %d records", len(big), got.Len())
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("refilling a reset slab allocated %.0f times", allocs)
	}
}
