// Package cluster promotes the internal/shard failure-domain boundary to
// the network: a coordinator places a log's workflow instances on worker
// nodes by consistent hash, fans each query out over HTTP to the workers
// owning wids, and merges the per-worker answers through the same
// answer-preserving normalization the in-process executor uses — so a
// distributed evaluation is digest-identical to a single-node one, and a
// lost worker degrades the answer (a 206 with a Completeness document
// naming the missing wid ranges) instead of failing it.
//
// Definition 4 makes incident semantics strictly per-instance, so the
// distribution is exact: no cross-worker joins exist, and each worker
// evaluates its owned wid set against its local copy of the log
// independently. What the network tier adds over in-process shards is real
// failure independence — a worker process can die, hang, or partition
// without taking the coordinator's process down — paid for with the full
// set of network-robustness machinery:
//
//   - per-worker attempt timeouts and capped-exponential retry with jitter
//     (reusing shard.Backoff);
//   - per-worker circuit breakers (shard.Breaker on the resilience clock
//     seam) so a dead node is skipped, not re-dialed by every query;
//   - hedged requests: a straggling worker gets a duplicate request after
//     a configurable delay, and the first answer wins;
//   - periodic health probing that feeds the coordinator's /readyz;
//   - per-worker budget slices (resilience.Budget.Slice) so one slow
//     worker cannot spend the whole query's allowance.
//
// Placement is deterministic and process-independent: the ring hashes
// worker names with FNV-1a (not maphash), so the coordinator and every
// worker — today's and a restarted one — agree on who owns which wid
// without any coordination beyond the membership list carried in each
// request.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"

	"wlq/internal/shard"
)

// DefaultHashReplicas is the virtual-node count per worker on the ring.
// More replicas smooth the wid distribution across workers at the cost of
// a larger (still tiny) ring; 64 keeps the per-worker load within a few
// percent of even for realistic worker counts.
const DefaultHashReplicas = 64

// ringPoint is one virtual node: a position on the hash circle owned by a
// worker (indexed into the membership slice).
type ringPoint struct {
	hash   uint64
	worker int
}

// Ring is a consistent-hash ring mapping workflow instance ids to workers.
// It is immutable after NewRing and safe for concurrent use. Identical
// inputs build identical rings in any process — that property is the whole
// protocol: the coordinator sends only the membership list and replica
// count, and each worker derives its own wid set.
type Ring struct {
	workers  []string
	replicas int
	points   []ringPoint
}

// NewRing builds a ring over the worker names with the given virtual-node
// count per worker (<= 0 means DefaultHashReplicas). Worker order does not
// affect placement — only the names do.
func NewRing(workers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultHashReplicas
	}
	r := &Ring{
		workers:  append([]string(nil), workers...),
		replicas: replicas,
		points:   make([]ringPoint, 0, len(workers)*replicas),
	}
	// Virtual nodes hash with FNV-1a like the wids (shard.HashWID).
	// Deliberately not maphash: placement must be stable across processes and
	// restarts, so a worker can recompute the wid set the coordinator
	// assigned it from the membership list alone.
	// One hasher and one buffer for the whole ring: workers rebuild it per
	// request.
	h := fnv.New64a()
	buf := make([]byte, 0, 80)
	for wi, name := range r.workers {
		for i := 0; i < replicas; i++ {
			buf = strconv.AppendUint(append(append(buf[:0], name...), '#'), uint64(i), 10)
			h.Reset()
			h.Write(buf)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), worker: wi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by name so placement stays
		// order-independent.
		return r.workers[r.points[i].worker] < r.workers[r.points[j].worker]
	})
	return r
}

// Workers returns the membership list (callers must not modify it).
func (r *Ring) Workers() []string { return r.workers }

// Replicas returns the virtual-node count per worker.
func (r *Ring) Replicas() int { return r.replicas }

// Owner returns the index (into Workers) of the worker owning the wid, or
// -1 for an empty ring: the first virtual node clockwise of the wid's hash.
func (r *Ring) Owner(wid uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	h := shard.HashWID(wid)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].worker
}

// OwnedWIDs filters an ascending wid slice down to the wids the worker at
// index self owns. The result is ascending; the input is not modified.
func (r *Ring) OwnedWIDs(wids []uint64, self int) []uint64 {
	var owned []uint64
	for _, wid := range wids {
		if r.Owner(wid) == self {
			owned = append(owned, wid)
		}
	}
	return owned
}

// Assignments partitions an ascending wid slice by owner: result[i] holds
// the (ascending) wids owned by Workers()[i]. Workers may own zero wids.
func (r *Ring) Assignments(wids []uint64) [][]uint64 {
	out := make([][]uint64, len(r.workers))
	for _, wid := range wids {
		if o := r.Owner(wid); o >= 0 {
			out[o] = append(out[o], wid)
		}
	}
	return out
}

// WorkerIndex resolves a worker name to its index in Workers, or -1.
func (r *Ring) WorkerIndex(name string) int {
	for i, w := range r.workers {
		if w == name {
			return i
		}
	}
	return -1
}
