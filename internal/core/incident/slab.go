package incident

// Slab is an arena for the is-lsn values of incidents built by composition:
// Concat, Union and Copy carve each result's seqs from a few large blocks
// instead of allocating one slice per incident. A carved slice is
// capacity-clipped, so nothing appended to it reaches its neighbour.
//
// What a slab hands out stays valid until its Reset, which hands the same
// blocks out again from their start; a slab that is never reset only grows,
// and what it handed out stays valid for as long as it is referenced. A Slab
// is not safe for concurrent use.
//
// The zero Slab is empty and ready for use.
type Slab struct {
	blocks [][]uint64 // every block the slab has, in the order it fills them
	cur    int        // the block being filled
}

// Block capacities, in values: the first block is small, so a slab that
// holds a few incidents pins little, and each next one doubles up to 32 KiB,
// a small-object size class. A request larger than that gets a block of its
// own size.
const (
	firstBlock = 256
	maxBlock   = 4096
)

// room returns the block being filled, with space for n more values: the
// next block (one kept by Reset, else a new one) when this one is short.
func (s *Slab) room(n int) []uint64 {
	for ; s.cur < len(s.blocks); s.cur++ {
		if b := s.blocks[s.cur]; cap(b)-len(b) >= n {
			return b
		}
	}
	size := firstBlock
	if len(s.blocks) > 0 {
		size = min(maxBlock, 2*cap(s.blocks[len(s.blocks)-1]))
	}
	s.blocks = append(s.blocks, make([]uint64, 0, max(size, n)))
	return s.blocks[s.cur]
}

// commit stores b, the block being filled as an operation that began at
// length at extended it, and returns the extension as an incident.
func (s *Slab) commit(wid uint64, b []uint64, at int) Incident {
	s.blocks[s.cur] = b
	return Incident{wid: wid, seqs: b[at:len(b):len(b)]}
}

// Concat is Incident.Concat with the result's seqs carved from the slab.
func (s *Slab) Concat(o, p Incident) Incident {
	mustPrecede(o, p)
	b := s.room(len(o.seqs) + len(p.seqs))
	at := len(b)
	return s.commit(o.wid, append(append(b, o.seqs...), p.seqs...), at)
}

// Union is Incident.Union with the result's seqs carved from the slab. When
// the incidents share a record nothing is carved: the space the merge wrote
// into stays free.
func (s *Slab) Union(o, p Incident) (Incident, bool) {
	if o.wid != p.wid {
		return Incident{}, false
	}
	b := s.room(len(o.seqs) + len(p.seqs))
	at := len(b)
	b, ok := appendUnion(b, o.seqs, p.seqs)
	if !ok {
		return Incident{}, false
	}
	return s.commit(o.wid, b, at), true
}

// Copy returns o with its seqs copied into the slab: an incident that no
// longer aliases whatever o's seqs live in.
func (s *Slab) Copy(o Incident) Incident {
	b := s.room(len(o.seqs))
	at := len(b)
	return s.commit(o.wid, append(b, o.seqs...), at)
}

// Reset empties the slab, keeping its blocks: every incident it handed out
// is invalid from here on.
func (s *Slab) Reset() {
	for i := range s.blocks {
		s.blocks[i] = s.blocks[i][:0]
	}
	s.cur = 0
}
