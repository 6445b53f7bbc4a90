package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"wlq/internal/logio"
	"wlq/internal/wlog"
)

// Frozen workload parameters. Changing any of them changes what the numbers
// mean, so a change that claims a gain may not touch them.
const (
	clinicInstances = 5000 // ≈52k records, 10 activities
	smokeInstances  = 200  // -smoke: in-process servers
	smokeSeconds    = 0.2  // -smoke: the window ends at the first pass boundary after this
	appendBatch     = 10   // records per POST /v1/logs/clinic/append
	appendRate      = 10   // batches per second, about a quarter of what one connection sustains beside the query client
	maxLateMS       = 5    // generator p95 lateness above which the append latencies are not the server's
	appendBound     = 0.25 // -aa: how far live.append_p50_ms and _p95_ms may differ between two runs
	digestEvery     = 16   // incidents bodies are digested on every 16th response
	logName         = "clinic"

	// The reference kernel (refkernel.go): its length, how often the query
	// client runs it, and its time on this sandbox in its fast state, the
	// machine speed at which timings are reported.
	refIters     = 2_000_000
	refPeriod    = 400 * time.Millisecond
	refNominalMS = 14.5
)

// pattern is one member of the query pool: a class name and the spellings
// that parse to the same canonical key (associativity, commutativity,
// parentheses and white space).
type poolPattern struct {
	class     string
	spellings []string
}

// pool is the query set Q: the distinct patterns of cmd/wlq-bench/suite.go
// plus one parallel-over-choice, covering atoms (frequent, rare, negated),
// each of the four operators, a 3-chain, the Theorem 4–5 rewrite case, the
// instance boundaries and an activity the log does not have.
var pool = []poolPattern{
	{"atom/frequent", []string{"SeeDoctor", "(SeeDoctor)"}},
	{"atom/rare", []string{"GetReimburse"}},
	{"atom/negated", []string{"!SeeDoctor"}},
	{"consecutive", []string{"CheckIn . SeeDoctor"}},
	{"sequential", []string{"SeeDoctor -> PayTreatment", "SeeDoctor->PayTreatment"}},
	{"choice", []string{"GetRefer | GetReimburse", "GetReimburse | GetRefer"}},
	{"parallel", []string{"UpdateRefer & TakeTreatment", "TakeTreatment & UpdateRefer"}},
	{"chain/seq3", []string{"GetRefer -> (SeeDoctor -> PayTreatment)", "(GetRefer -> SeeDoctor) -> PayTreatment", "GetRefer -> SeeDoctor -> PayTreatment"}},
	{"mixed/choice-of-seqs", []string{"(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)", "(SeeDoctor -> UpdateRefer) | (SeeDoctor -> PayTreatment)"}},
	{"boundary/start-end", []string{"START -> END", "(START) -> (END)"}},
	{"absent", []string{"NoSuchActivity -> SeeDoctor"}},
	{"mixed/par-of-choice", []string{"UpdateRefer & (TakeTreatment | GetReimburse)", "(GetReimburse | TakeTreatment) & UpdateRefer", "(TakeTreatment | GetReimburse) & UpdateRefer"}},
}

// request is one scheduled query: a pool pattern, the spelling sent, and the
// answer mode.
type request struct {
	Pattern int    `json:"pattern"`
	Query   string `json:"query"`
	Mode    string `json:"mode"`
}

func poolIndex(class string) int {
	for i, p := range pool {
		if p.class == class {
			return i
		}
	}
	panic("bench: unknown pattern class " + class)
}

// evalMultiset is the eval-mix, live-mix and fanout-2w mix: every pattern of
// Q as count×2, instances×1, incidents×1, plus exists on four patterns.
func evalMultiset() []request {
	var out []request
	for i, p := range pool {
		for _, mode := range []string{"count", "count", "instances", "incidents"} {
			out = append(out, request{i, p.spellings[0], mode})
		}
	}
	for _, class := range []string{"sequential", "absent", "atom/rare", "parallel"} {
		i := poolIndex(class)
		out = append(out, request{i, pool[i].spellings[0], "exists"})
	}
	return out
}

// hotPatterns are the eight hot-mix patterns, most popular first; hotWeights
// their multiplicities, round(24 / rank^1.1).
var (
	hotPatterns = []string{"choice", "chain/seq3", "parallel", "mixed/choice-of-seqs",
		"sequential", "mixed/par-of-choice", "atom/frequent", "boundary/start-end"}
	hotWeights = []int{24, 11, 7, 5, 4, 3, 3, 2}
)

// hotMultiset is the hot-mix: eight patterns in incidents mode under
// Zipf(1.1) popularity, each occurrence cycling through the pattern's
// spellings so that cache hits depend on pattern.CanonicalKey.
func hotMultiset() []request {
	var out []request
	for rank, class := range hotPatterns {
		i := poolIndex(class)
		for k := 0; k < hotWeights[rank]; k++ {
			sp := pool[i].spellings
			out = append(out, request{i, sp[k%len(sp)], "incidents"})
		}
	}
	return out
}

// schedule is a seeded shuffle of the multiset; clients walk it cyclically,
// so the mix is the same however far a run gets.
func schedule(multiset []request, seed int64) []request {
	out := append([]request(nil), multiset...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmPass returns the first scheduled request of each pattern: the pass
// that ends set-up, after which every canonical key has been planned,
// evaluated and (where there is a cache) cached once.
func warmPass(sched []request) []request {
	seen := make(map[int]bool)
	var out []request
	for _, r := range sched {
		if !seen[r.Pattern] {
			seen[r.Pattern] = true
			out = append(out, r)
		}
	}
	return out
}

// splitLive cuts the log into live-mix's base snapshot and the held-back
// append stream: the last n records by lsn. A prefix of a valid log is valid
// under Definition 2, and the stream interleaves instances as the full log does.
func splitLive(l *wlog.Log, n int) (base *wlog.Log, stream []wlog.Record, err error) {
	recs := l.Records()
	if n >= len(recs) {
		return nil, nil, fmt.Errorf("log has %d records, cannot hold back %d", len(recs), n)
	}
	cut := len(recs) - n
	base, err = wlog.New(recs[:cut])
	return base, recs[cut:], err
}

// appendBodies encodes the stream as POST bodies of appendBatch JSONL lines.
func appendBodies(stream []wlog.Record) ([][]byte, error) {
	var bodies [][]byte
	var buf bytes.Buffer
	for i, r := range stream {
		line, err := logio.EncodeRecord(r)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
		if (i+1)%appendBatch == 0 || i == len(stream)-1 {
			bodies = append(bodies, append([]byte(nil), buf.Bytes()...))
			buf.Reset()
		}
	}
	return bodies, nil
}
