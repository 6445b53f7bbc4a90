package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

// answer is what the oracle knows about one pattern's incident set. The
// digests are sums of per-element hashes, so they do not depend on the order
// a server lists the elements in.
type answer struct {
	Count      int
	Instances  int
	InstDigest uint64
	IncDigest  uint64
}

// oracleAnswers evaluates every pool pattern with the paper's verbatim
// Algorithm 1 (nested-loop joins, no rewriting).
func oracleAnswers(l *wlog.Log) ([]answer, error) {
	ev := eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive})
	out := make([]answer, len(pool))
	for i, p := range pool {
		node, err := pattern.Parse(p.spellings[0])
		if err != nil {
			return nil, fmt.Errorf("pool pattern %q: %w", p.spellings[0], err)
		}
		set := ev.Eval(node)
		a := answer{Count: set.Len()}
		for _, inc := range set.Incidents() {
			a.IncDigest += hashIncident(inc.WID(), inc.Seqs())
		}
		for _, wid := range set.WIDs() {
			a.Instances++
			a.InstDigest += hashIncident(wid, nil)
		}
		out[i] = a
	}
	return out, nil
}

// hashIncident is FNV-1a over the wid and the seqs as little-endian words.
func hashIncident(wid uint64, seqs []uint64) uint64 {
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	word(wid)
	for _, s := range seqs {
		word(s)
	}
	return h
}

// reply is the part of a POST /v1/query response the benchmark reads.
type reply struct {
	Count     int
	Exists    bool
	ElapsedUS int64
	Instances []uint64
	Incidents []struct {
		WID  uint64   `json:"wid"`
		Seqs []uint64 `json:"seqs"`
	}
}

// parseReply reads count, exists and elapsed_us, the instances array in
// instances mode, and the incidents array when full is set. It stops at the
// first point where it has all of them: the server writes the scalars before
// the arrays, so a multi-megabyte incidents body that is not being digested
// costs the load generator a few hundred bytes of decoding.
func parseReply(body []byte, mode string, full bool) (reply, error) {
	var r reply
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return r, errors.New("response is not a JSON object")
	}
	needInst, needInc := mode == "instances", full && mode == "incidents"
	scalars := 0
	for dec.More() && (scalars < 3 || needInst || needInc) {
		key, err := dec.Token()
		if err != nil {
			return r, err
		}
		switch key {
		case "count":
			err = dec.Decode(&r.Count)
			scalars++
		case "exists":
			err = dec.Decode(&r.Exists)
			scalars++
		case "elapsed_us":
			err = dec.Decode(&r.ElapsedUS)
			scalars++
		case "instances":
			err = dec.Decode(&r.Instances)
			needInst = false
		case "incidents":
			if needInc {
				err = dec.Decode(&r.Incidents)
				needInc = false
				break
			}
			fallthrough
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return r, err
		}
	}
	if scalars < 3 {
		return r, errors.New("response lacks count, exists or elapsed_us")
	}
	// An empty array is omitted from the response, so a missing one is empty.
	return r, nil
}

// checker verifies replies against the oracle. On a static log the answer is
// exact. On live-mix the log grows during the run and incident sets only
// grow with it, so a reply must lie between the base snapshot's answer (lo)
// and the full log's (hi); the exact check runs after the last append.
type checker struct {
	lo, hi []answer
}

func staticChecker(a []answer) checker { return checker{a, a} }

// check returns "" when the reply agrees with the oracle.
func (c checker) check(req request, r reply, full bool) string {
	lo, hi := c.lo[req.Pattern], c.hi[req.Pattern]
	exact := lo == hi
	if r.Count < lo.Count || r.Count > hi.Count {
		return fmt.Sprintf("count %d outside oracle [%d, %d]", r.Count, lo.Count, hi.Count)
	}
	if r.Exists != (r.Count > 0) {
		return fmt.Sprintf("exists %v with count %d", r.Exists, r.Count)
	}
	switch {
	case req.Mode == "instances":
		if len(r.Instances) < lo.Instances || len(r.Instances) > hi.Instances {
			return fmt.Sprintf("%d instances outside oracle [%d, %d]", len(r.Instances), lo.Instances, hi.Instances)
		}
		var d uint64
		for _, wid := range r.Instances {
			d += hashIncident(wid, nil)
		}
		if exact && d != hi.InstDigest {
			return "instances digest differs from the oracle"
		}
	case req.Mode == "incidents" && full:
		if len(r.Incidents) != r.Count {
			return fmt.Sprintf("%d incidents listed with count %d", len(r.Incidents), r.Count)
		}
		var d uint64
		for _, inc := range r.Incidents {
			d += hashIncident(inc.WID, inc.Seqs)
		}
		if exact && d != hi.IncDigest {
			return "incidents digest differs from the oracle"
		}
	}
	return ""
}
