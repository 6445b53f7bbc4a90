// Package faultinject provides deterministic fault injection for the chaos
// test suites. Every fault is seedable and repeatable: an injection point
// fires on an exact call ordinal (NthCall), a reader fails at an exact byte
// offset (ErrorReader), a round trip, a file write or a crash point fails
// at an exact call — no randomness, no sleeps, no timing races, so a chaos
// test that fails once fails every time under the same seed.
//
// The package is imported ONLY from tests. Production code exposes the
// seams — eval.SetEvalHook, io.Reader wrapping, cluster.Config.Transport,
// wal.File and wal.Options.Hook — and this package supplies deterministic
// faults to plug into them. Nothing here touches global state by itself.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// ErrInjected is the sentinel wrapped by every injected I/O failure, so
// tests can assert a failure came from the harness and not the code under
// test: errors.Is(err, faultinject.ErrInjected).
var ErrInjected = errors.New("injected fault")

// NthCall fires an action on exactly the nth invocation (1-based) of an
// injection point. It is safe for concurrent use: under a parallel
// evaluation many workers hit the same point, and exactly one observes the
// fault. Subsequent calls do nothing, so a harness stays armed across
// retries without re-firing.
type NthCall struct {
	n     uint64
	calls atomic.Uint64
}

// OnNthCall arms an injection point that fires on the nth call (n < 1 never
// fires).
func OnNthCall(n uint64) *NthCall { return &NthCall{n: n} }

// Hit records one invocation and reports whether this is the firing one.
func (c *NthCall) Hit() bool {
	if c == nil || c.n == 0 {
		return false
	}
	return c.calls.Add(1) == c.n
}

// Calls returns how many invocations the point has seen.
func (c *NthCall) Calls() uint64 { return c.calls.Load() }

// PanicOnNth returns a hook that panics with the given value on its nth
// invocation — shaped to plug directly into eval.SetEvalHook for the
// worker-panic chaos tests (the wid argument is ignored; firing is by call
// ordinal so the fault is deterministic under any instance ordering).
func PanicOnNth(n uint64, value any) func(uint64) {
	c := OnNthCall(n)
	return func(uint64) {
		if c.Hit() {
			panic(value)
		}
	}
}

// ErrorReader yields r's bytes until limit bytes have been read, then fails
// with an error wrapping ErrInjected. limit 0 fails on the first Read. It
// simulates a log source dying mid-file (truncated upload, lost NFS mount)
// at a byte-exact, repeatable position.
func ErrorReader(r io.Reader, limit int64) io.Reader {
	return &errorReader{r: r, remaining: limit}
}

type errorReader struct {
	r         io.Reader
	remaining int64
}

func (e *errorReader) Read(p []byte) (int, error) {
	if e.remaining <= 0 {
		return 0, fmt.Errorf("read failed after byte limit: %w", ErrInjected)
	}
	if int64(len(p)) > e.remaining {
		p = p[:e.remaining]
	}
	n, err := e.r.Read(p)
	e.remaining -= int64(n)
	return n, err
}

// TruncateReader yields r's first limit bytes and then a clean EOF: the
// torn-file case where the source ends mid-record without any I/O error.
// Parsers must report a position-carrying syntax error, not succeed on half
// a log.
func TruncateReader(r io.Reader, limit int64) io.Reader {
	return io.LimitReader(r, limit)
}

// SlowReader delivers r's bytes at most chunk bytes per Read call. It does
// not sleep — determinism, not wall-clock slowness, is the point: it forces
// the many-small-Reads schedule that shakes out buffering bugs in stream
// parsers (a record split across arbitrary Read boundaries must still
// parse).
func SlowReader(r io.Reader, chunk int) io.Reader {
	if chunk < 1 {
		chunk = 1
	}
	return &slowReader{r: r, chunk: chunk}
}

type slowReader struct {
	r     io.Reader
	chunk int
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.r.Read(p)
}
