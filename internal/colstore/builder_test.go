package colstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wlq/internal/gen"
	"wlq/internal/logio"
	"wlq/internal/wlog"
)

// writeJSONL writes records as a JSONL log file, in the order given.
func writeJSONL(t *testing.T, recs []wlog.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := logio.NewWriter(f, logio.FormatJSONL)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// stream loads a log file through a Builder, a record at a time, as
// wlq-serve does.
func stream(t *testing.T, path string) (*Store, error) {
	t.Helper()
	var b Builder
	if err := logio.ReadFileFunc(path, b.Add); err != nil {
		t.Fatal(err)
	}
	return b.Finish()
}

// orders are the file orders a loader must not care about: lsn order,
// reversed, and shuffled.
func orders(recs []wlog.Record, seed int64) map[string][]wlog.Record {
	rev := slices.Clone(recs)
	slices.Reverse(rev)
	shuf := slices.Clone(recs)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	return map[string][]wlog.Record{"sorted": recs, "reversed": rev, "shuffled": shuf}
}

// assertSameStore holds two stores to equal answers from every read method.
func assertSameStore(t *testing.T, name string, got, want *Store) {
	t.Helper()
	if !slices.Equal(got.WIDs(), want.WIDs()) || !slices.Equal(got.Activities(), want.Activities()) ||
		got.TotalRecords() != want.TotalRecords() || got.LastLSN() != want.LastLSN() {
		t.Fatalf("%s: %d wids, %v, %d records, lsn %d; want %d, %v, %d, %d", name,
			len(got.WIDs()), got.Activities(), got.TotalRecords(), got.LastLSN(),
			len(want.WIDs()), want.Activities(), want.TotalRecords(), want.LastLSN())
	}
	for _, act := range want.Activities() {
		if got.ActivityCount(act) != want.ActivityCount(act) || got.ActivityLastLSN(act) != want.ActivityLastLSN(act) {
			t.Fatalf("%s: statistics of %q differ", name, act)
		}
	}
	for _, wid := range want.WIDs() {
		g, w := got.Instance(wid), want.Instance(wid)
		// A file does not tell an empty map from a nil one, nor 1.0 from 1,
		// so records compare as Record.Equal does.
		if !slices.EqualFunc(g, w, wlog.Record.Equal) {
			t.Fatalf("%s: instance %d is %v, want %v", name, wid, g, w)
		}
		for _, act := range want.Activities() {
			if !slices.Equal(seqsOf(got, wid, act), seqsOf(want, wid, act)) {
				t.Fatalf("%s: postings of (%d, %q) differ", name, wid, act)
			}
		}
	}
}

// TestStreamedLoadMatchesBuild: a valid log file loads, in any record
// order, into the store Build makes of the log, as logio.ReadFile (which
// sorts by lsn) accepts it.
func TestStreamedLoadMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := withAttrs(rng, gen.MustRandomLog(gen.LogParams{
		Instances: 300, MeanLength: 10, CompleteFraction: 0.7, Seed: 5,
	}))
	if l.Len() < 2*checkBatch {
		t.Fatalf("fixture of %d records spans under two check batches", l.Len())
	}
	want := Build(l)
	for name, recs := range orders(l.Records(), 5) {
		path := writeJSONL(t, recs)
		if _, err := logio.ReadFile(path); err != nil {
			t.Fatalf("%s: ReadFile: %v", name, err)
		}
		got, err := stream(t, path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameStore(t, name, got, want)
	}
}

// TestStreamedLoadFailsLikeReadFile: an invalid log file fails, in any
// record order, with the first Definition 2 violation in lsn order — the
// error logio.ReadFile reports for it.
func TestStreamedLoadFailsLikeReadFile(t *testing.T) {
	l := gen.MustRandomLog(gen.LogParams{Instances: 300, MeanLength: 10, CompleteFraction: 0.7, Seed: 9})
	recs := l.Records()
	late := 2*checkBatch + 17 // past the first two batches
	var ended wlog.Record     // an END record, for a record after it
	for _, r := range recs[:late] {
		if r.IsEnd() {
			ended = r
		}
	}
	variants := map[string]func([]wlog.Record) []wlog.Record{
		"gap": func(rs []wlog.Record) []wlog.Record { return slices.Delete(rs, late, late+1) },
		"duplicate lsn": func(rs []wlog.Record) []wlog.Record {
			return slices.Insert(rs, late, rs[late])
		},
		"after END": func(rs []wlog.Record) []wlog.Record {
			r := wlog.Record{LSN: uint64(len(rs) + 1), WID: ended.WID, Seq: ended.Seq + 1, Activity: "A"}
			return append(rs, r)
		},
		"is-lsn skipped": func(rs []wlog.Record) []wlog.Record { rs[late].Seq += 5; return rs },
		"START with attributes": func(rs []wlog.Record) []wlog.Record {
			for i := len(rs) - 1; ; i-- { // the last START
				if rs[i].IsStart() {
					rs[i].Out = wlog.Attrs("x", 1)
					return rs
				}
			}
		},
		"two faults": func(rs []wlog.Record) []wlog.Record {
			rs[late].Seq += 5
			rs[10].Seq += 5
			return rs
		},
	}
	for fault, mutate := range variants {
		bad := mutate(slices.Clone(recs))
		for name, order := range orders(bad, 9) {
			path := writeJSONL(t, order)
			_, want := logio.ReadFile(path)
			if want == nil {
				t.Fatalf("%s/%s: ReadFile accepted the log", fault, name)
			}
			st, err := stream(t, path)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s/%s: streamed load failed with %v, ReadFile with %v", fault, name, err, want)
			}
			if st.TotalRecords() != len(bad) {
				t.Errorf("%s/%s: store of %d records, file holds %d", fault, name, st.TotalRecords(), len(bad))
			}
		}
	}
}
