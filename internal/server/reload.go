package server

import (
	"fmt"
	"net/http"
	"sort"

	"wlq/internal/colstore"
	"wlq/internal/ingest"
)

// Hot reload with quarantine. ReloadLogs re-reads every registered log from
// its source spec via Config.Loader and swaps the rebuilt entry in atomically
// (logEntry values are immutable; in-flight queries keep the snapshot they
// resolved). A log whose reload fails — the loader errors, or the fresh log
// fails Definition 2 validation — is quarantined: the last-good entry keeps
// serving, the error is recorded, and /readyz + /v1/logs surface it until a
// later reload succeeds. The result cache needs no invalidation sweep: keys
// carry the entry's reload generation, so stale results simply become
// unreachable and age out under LRU pressure.

// ReloadResult summarizes one ReloadLogs pass.
type ReloadResult struct {
	// Reloaded lists the logs whose fresh load replaced the served entry.
	Reloaded []string `json:"reloaded"`
	// Quarantined maps each failing log to its reload error; those logs
	// keep serving their last-good snapshot.
	Quarantined map[string]string `json:"quarantined,omitempty"`
	// Coalesced is true when this caller did not run its own pass but
	// joined one already in progress (single-flight) and shares its result.
	Coalesced bool `json:"coalesced,omitempty"`
}

// reloadCall is one in-progress reload pass; joiners block on done and then
// share res/err.
type reloadCall struct {
	done chan struct{}
	res  ReloadResult
	err  error
}

// ReloadLogs re-reads every registered log. It returns an error only when
// reloading is not configured (nil Config.Loader); per-log failures are
// reported in the result and quarantine the log rather than failing the pass.
//
// Concurrent callers are coalesced (single-flight): a SIGHUP landing while a
// POST /v1/reload pass is already loading joins that pass and shares its
// result instead of re-reading every source a second time — reload is
// idempotent, and doubling the I/O under a signal storm helps nobody.
func (s *Server) ReloadLogs() (ReloadResult, error) {
	if s.cfg.Loader == nil {
		return ReloadResult{}, fmt.Errorf("server: hot reload not configured (no loader)")
	}
	s.reloadMu.Lock()
	if c := s.reloadCall; c != nil {
		s.reloadMu.Unlock()
		<-c.done
		s.metrics.CoalescedReloads.Add(1)
		res := c.res
		res.Coalesced = true
		return res, c.err
	}
	c := &reloadCall{done: make(chan struct{})}
	s.reloadCall = c
	s.reloadMu.Unlock()
	c.res, c.err = s.reloadLogsLocked()
	// Clear the slot before signalling: a caller arriving after close(done)
	// must start a fresh pass, not join a finished one.
	s.reloadMu.Lock()
	s.reloadCall = nil
	s.reloadMu.Unlock()
	close(c.done)
	return c.res, c.err
}

// reloadLogsLocked runs one actual reload pass (the single flight).
func (s *Server) reloadLogsLocked() (ReloadResult, error) {

	// Snapshot the roster under the read lock, then load and validate
	// outside any lock: loading is file I/O plus index building and must
	// not stall queries.
	s.mu.RLock()
	type target struct {
		name, source string
		live         *ingest.Coordinator
	}
	targets := make([]target, 0, len(s.names))
	for _, name := range s.names {
		targets = append(targets, target{
			name: name, source: s.logs[name].source, live: s.logs[name].live,
		})
	}
	s.mu.RUnlock()

	res := ReloadResult{Reloaded: []string{}}
	fresh := make(map[string]*logEntry, len(targets))
	// quarantine records a failed reload; the log keeps serving its last-good
	// state.
	quarantine := func(t target, msg string, err error) {
		s.metrics.LogReloadFailures.Add(1)
		if res.Quarantined == nil {
			res.Quarantined = make(map[string]string)
		}
		res.Quarantined[t.name] = err.Error()
		if s.cfg.Logger != nil {
			s.cfg.Logger.Error(msg, "log", t.name, "source", t.source, "error", err)
		}
	}
	for _, t := range targets {
		// The loader feeds the records to a builder as it reads them, so
		// no decoded copy of the log is held beside the store.
		var b colstore.Builder
		var st *colstore.Store
		err := s.cfg.Loader(t.source, b.Add)
		if err == nil {
			// Definition 2 validation gates the swap: AddLog tolerates an
			// invalid log at startup (the operator sees what they loaded),
			// but a reload degrading a valid log to an invalid one is a
			// fault to contain, not a state to adopt.
			st, err = b.Finish()
		}
		if err != nil {
			quarantine(t, "log reload failed; serving last-good snapshot", err)
			continue
		}
		e := &logEntry{
			name:   t.name,
			source: t.source,
			valid:  true,
		}
		if t.live != nil {
			// Reload-vs-append: the fresh snapshot alone would silently drop
			// every durably acknowledged append since the last (re)load.
			// Rebase rebuilds the live store from the snapshot and replays
			// the WAL on top (lsn-dedup keeps records the snapshot already
			// absorbed). A conflicting snapshot — one the WAL's records
			// cannot legally follow — quarantines the log; the coordinator
			// and the served entry are left untouched.
			if err := t.live.Rebase(st); err != nil {
				quarantine(t, "log reload conflicts with its WAL; serving last-good state", err)
				continue
			}
			e.live = t.live
		} else {
			e.store = st
		}
		fresh[t.name] = e
		res.Reloaded = append(res.Reloaded, t.name)
	}
	sort.Strings(res.Reloaded)

	s.mu.Lock()
	for name, e := range fresh {
		if old, ok := s.logs[name]; ok {
			e.gen = old.gen + 1
		}
		s.logs[name] = e
		delete(s.quarantine, name)
		s.metrics.LogReloads.Add(1)
	}
	for name, reason := range res.Quarantined {
		s.quarantine[name] = reason
	}
	s.mu.Unlock()

	if s.cfg.Logger != nil && len(res.Reloaded) > 0 {
		s.cfg.Logger.Info("logs reloaded", "reloaded", res.Reloaded,
			"quarantined", len(res.Quarantined))
	}
	return res, nil
}

// handleReload is POST /v1/reload: trigger a reload pass and report the
// outcome. 501 when no loader is configured, 200 otherwise — per-log
// failures are data (the quarantined map), not a request failure.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	res, err := s.ReloadLogs()
	if err != nil {
		writeError(w, http.StatusNotImplemented, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
