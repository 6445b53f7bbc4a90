package server

import (
	"testing"

	"wlq"
	"wlq/internal/wlog"
)

// oracleDigest is the reference every served answer is held to: naive
// Algorithm 1 over the row index (the paper's LogRecordsDict), reduced like
// digestOf. A static server answers from colstore.Store, so equality here
// is the served half of the Store ≡ Index equivalence suite.
func oracleDigest(l *wlog.Log, q string) string {
	set := oracleSet(l, q)
	var resp queryResponse
	resp.Count = set.Len()
	if set.Len() > 0 { // the wire form omits an empty list
		resp.Incidents = incidentDocs(set.Incidents())
	}
	return digestOf(resp)
}

var fig3Queries = []string{
	"UpdateRefer -> GetReimburse",
	"CheckIn . SeeDoctor",
	"GetRefer | TakeTreatment",
	"SeeDoctor & PayTreatment",
	"!SeeDoctor . END",
}

// TestColumnarBackendMatchesRow: a static log is served from the columnar
// store, and the HTTP answer must be the row-index oracle's.
func TestColumnarBackendMatchesRow(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	assertServedMatchesOracle(t, h, "", "fig3", wlq.ClinicFig3(), fig3Queries)
}

// TestColumnarSharded is the same bar for a scan sharded into three chunks
// that accepts a partial answer: with no fault, it answers exactly the
// oracle.
func TestColumnarSharded(t *testing.T) {
	h := newTestServer(t, Config{Workers: 3}).Handler()
	assertServedMatchesOracle(t, h, `,"partial":true`, "fig3", wlq.ClinicFig3(), fig3Queries)
	l := clusterEquivalenceLogs()["skewed"]
	s := New(Config{Workers: 3})
	if err := s.AddLog("eq", "builtin:eq", l); err != nil {
		t.Fatal(err)
	}
	assertServedMatchesOracle(t, s.Handler(), `,"partial":true`, "eq", l, clusterEquivalenceQueries)
}
