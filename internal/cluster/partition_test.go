package cluster

import "testing"

// coverage asserts the parts form an exact partition of wids: every wid in
// exactly one part, nothing added, nothing lost.
func coverage(t *testing.T, wids []uint64, parts []Part) {
	t.Helper()
	seen := make(map[uint64]int)
	for _, p := range parts {
		if len(p.WIDs) == 0 {
			t.Fatalf("part %d is empty (empty parts must be dropped)", p.ID)
		}
		for _, w := range p.WIDs {
			seen[w]++
		}
		min, max := p.WIDs[0], p.WIDs[0]
		for _, w := range p.WIDs {
			if w < min {
				min = w
			}
			if w > max {
				max = w
			}
		}
		if p.MinWID != min || p.MaxWID != max {
			t.Fatalf("part %d bounds [%d,%d] don't match members [%d,%d]",
				p.ID, p.MinWID, p.MaxWID, min, max)
		}
	}
	for _, w := range wids {
		if seen[w] != 1 {
			t.Fatalf("wid %d appears in %d parts, want exactly 1", w, seen[w])
		}
	}
	if len(seen) != len(wids) {
		t.Fatalf("parts cover %d wids, want %d", len(seen), len(wids))
	}
	for i, p := range parts {
		if p.ID != i {
			t.Fatalf("part at position %d has ID %d, want sequential ids", i, p.ID)
		}
	}
}

func TestPartitionRange(t *testing.T) {
	wids := testWIDs(10)
	parts := Partition(wids, 4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts, want 4", len(parts))
	}
	coverage(t, wids, parts)
	// Contiguous ceil-division chunks: 3,3,3,1.
	wantSizes := []int{3, 3, 3, 1}
	prevMax := uint64(0)
	for i, p := range parts {
		if len(p.WIDs) != wantSizes[i] {
			t.Errorf("part %d has %d wids, want %d", i, len(p.WIDs), wantSizes[i])
		}
		if p.MinWID <= prevMax {
			t.Errorf("part %d range [%d,%d] overlaps or precedes previous max %d",
				i, p.MinWID, p.MaxWID, prevMax)
		}
		prevMax = p.MaxWID
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	if got := Partition(nil, 4); got != nil {
		t.Errorf("Partition(nil) = %v, want nil", got)
	}
	// More parts than wids: one wid per part, no empties.
	parts := Partition(testWIDs(3), 8)
	if len(parts) != 3 {
		t.Errorf("Partition(3 wids, 8) produced %d parts, want 3", len(parts))
	}
	coverage(t, testWIDs(3), parts)
	// A single part is the degenerate whole-log domain.
	parts = Partition(testWIDs(5), 1)
	if len(parts) != 1 || len(parts[0].WIDs) != 5 {
		t.Errorf("Partition(n=1) = %+v, want one part of 5", parts)
	}
}
