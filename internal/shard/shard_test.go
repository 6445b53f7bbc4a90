package shard

import (
	"runtime"
	"testing"
)

func seqWIDs(n int) []uint64 {
	wids := make([]uint64, n)
	for i := range wids {
		wids[i] = uint64(i + 1)
	}
	return wids
}

// coverage asserts the shards form an exact partition of wids: every wid in
// exactly one shard, nothing added, nothing lost.
func coverage(t *testing.T, wids []uint64, shards []Shard) {
	t.Helper()
	seen := make(map[uint64]int)
	for _, sh := range shards {
		if len(sh.WIDs) == 0 {
			t.Fatalf("shard %d is empty (empty shards must be dropped)", sh.ID)
		}
		for _, w := range sh.WIDs {
			seen[w]++
		}
		min, max := sh.WIDs[0], sh.WIDs[0]
		for _, w := range sh.WIDs {
			if w < min {
				min = w
			}
			if w > max {
				max = w
			}
		}
		if sh.MinWID != min || sh.MaxWID != max {
			t.Fatalf("shard %d bounds [%d,%d] don't match members [%d,%d]",
				sh.ID, sh.MinWID, sh.MaxWID, min, max)
		}
	}
	for _, w := range wids {
		if seen[w] != 1 {
			t.Fatalf("wid %d appears in %d shards, want exactly 1", w, seen[w])
		}
	}
	if len(seen) != len(wids) {
		t.Fatalf("shards cover %d wids, want %d", len(seen), len(wids))
	}
	for i, sh := range shards {
		if sh.ID != i {
			t.Fatalf("shard at position %d has ID %d, want sequential ids", i, sh.ID)
		}
	}
}

func TestShardPartitionRange(t *testing.T) {
	wids := seqWIDs(10)
	shards := Partition(wids, 4)
	if len(shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(shards))
	}
	coverage(t, wids, shards)
	// Contiguous ceil-division chunks: 3,3,3,1.
	wantSizes := []int{3, 3, 3, 1}
	prevMax := uint64(0)
	for i, sh := range shards {
		if len(sh.WIDs) != wantSizes[i] {
			t.Errorf("shard %d has %d wids, want %d", i, len(sh.WIDs), wantSizes[i])
		}
		if sh.MinWID <= prevMax {
			t.Errorf("shard %d range [%d,%d] overlaps or precedes previous max %d",
				i, sh.MinWID, sh.MaxWID, prevMax)
		}
		prevMax = sh.MaxWID
	}
}

func TestShardPartitionEdgeCases(t *testing.T) {
	if got := Partition(nil, 4); got != nil {
		t.Errorf("Partition(nil) = %v, want nil", got)
	}
	// More shards than wids: one wid per shard, no empties.
	shards := Partition(seqWIDs(3), 8)
	if len(shards) != 3 {
		t.Errorf("Partition(3 wids, 8) produced %d shards, want 3", len(shards))
	}
	coverage(t, seqWIDs(3), shards)
	// n <= 0 defaults to GOMAXPROCS (still capped by the wid count).
	wids := seqWIDs(1000)
	shards = Partition(wids, 0)
	want := runtime.GOMAXPROCS(0)
	if want > 1000 {
		want = 1000
	}
	if len(shards) != want {
		t.Errorf("Partition(n=0) produced %d shards, want GOMAXPROCS=%d", len(shards), want)
	}
	coverage(t, wids, shards)
	// Single shard is the degenerate whole-log domain.
	shards = Partition(seqWIDs(5), 1)
	if len(shards) != 1 || len(shards[0].WIDs) != 5 {
		t.Errorf("Partition(n=1) = %+v, want one shard of 5", shards)
	}
}
