package faultinject

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
)

// Network fault injection for the cluster chaos suites. The production seam
// is cluster.Config.Transport (an http.RoundTripper): tests wrap the real
// transport in a FlakyRoundTripper to fail, blackhole or reroute exact
// requests — by ordinal, scoped to one worker — without killing processes
// or sleeping. HangableListener covers the one fault a RoundTripper cannot
// express from the client side: a server that accepts the connection and
// then never answers.

// FlakyRoundTripper wraps an http.RoundTripper with deterministic faults.
// Faults fire by request ordinal (NthCall semantics: exactly once, on an
// exact call), counting only requests whose URL contains Match (empty
// matches everything) — so a test can blackhole worker 2's third request
// while the rest of the fleet stays healthy.
type FlakyRoundTripper struct {
	// Next is the real transport (nil = http.DefaultTransport).
	Next http.RoundTripper
	// Match scopes fault counting to requests whose URL contains it.
	Match string
	// FailOn makes the matching request fail immediately with a transport
	// error wrapping ErrInjected — a connection reset, from the caller's
	// point of view.
	FailOn *NthCall
	// BlackholeOn makes the matching request hang until its context is
	// cancelled, then return the context error: a partitioned peer. The
	// caller's attempt timeout is what ends it, exactly as on a real
	// network.
	BlackholeOn *NthCall
	// RerouteTo, when non-empty, redirects EVERY matching request to this
	// base URL (scheme://host) instead of the original. It models a stale
	// membership list / DNS pointing at the wrong node: the receiver answers
	// as itself, from its own copy of the log.
	RerouteTo string
}

// RoundTrip implements http.RoundTripper.
func (f *FlakyRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.Match == "" || strings.Contains(req.URL.String(), f.Match) {
		if f.FailOn.Hit() {
			return nil, fmt.Errorf("connection reset by fault injection: %w", ErrInjected)
		}
		if f.BlackholeOn.Hit() {
			<-req.Context().Done()
			return nil, fmt.Errorf("blackholed request: %w", req.Context().Err())
		}
		if f.RerouteTo != "" {
			clone := req.Clone(req.Context())
			target := strings.TrimSuffix(f.RerouteTo, "/") + req.URL.Path
			u, err := clone.URL.Parse(target)
			if err != nil {
				return nil, fmt.Errorf("reroute %q: %w", f.RerouteTo, err)
			}
			clone.URL = u
			clone.Host = u.Host
			req = clone
		}
	}
	next := f.Next
	if next == nil {
		next = http.DefaultTransport
	}
	return next.RoundTrip(req)
}

// HangableListener wraps a net.Listener so a test can make the server
// behind it stop answering — accepted connections stay open but all reads
// from them stall — and later resume. From a client's side this is the
// worst network fault: TCP connects fine, the request goes out, and no
// bytes ever come back. Unlike killing the server there is no RST to fail
// fast on; only the client's own deadline ends the wait.
type HangableListener struct {
	net.Listener
	mu        sync.Mutex
	hung      bool
	release   chan struct{} // closed on Resume; conns blocked in Read wake up
	closed    chan struct{} // closed on Close; hung Reads unblock with ErrClosed
	closeOnce sync.Once
}

// NewHangableListener wraps ln; the listener starts in the normal
// (answering) state.
func NewHangableListener(ln net.Listener) *HangableListener {
	return &HangableListener{
		Listener: ln,
		release:  make(chan struct{}),
		closed:   make(chan struct{}),
	}
}

// Close unblocks every hung Read (with net.ErrClosed) and closes the
// wrapped listener, so a test torn down mid-hang leaks no goroutines.
func (h *HangableListener) Close() error {
	h.closeOnce.Do(func() { close(h.closed) })
	return h.Listener.Close()
}

// Accept returns connections whose reads stall while the listener is hung.
func (h *HangableListener) Accept() (net.Conn, error) {
	c, err := h.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &hangConn{Conn: c, owner: h}, nil
}

// Hang makes every connection (current and future) stall on Read until
// Resume. Idempotent.
func (h *HangableListener) Hang() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.hung {
		h.hung = true
		h.release = make(chan struct{})
	}
}

// Resume wakes every stalled Read and lets traffic flow again. Idempotent.
func (h *HangableListener) Resume() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hung {
		h.hung = false
		close(h.release)
	}
}

// gate returns the current hang state and its release channel.
func (h *HangableListener) gate() (bool, chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hung, h.release
}

// hangConn is a connection whose Read blocks while the owning listener is
// hung. Writes still succeed (the request reaches the server; the response
// never comes back — the half-open behavior a partition actually shows).
type hangConn struct {
	net.Conn
	owner *HangableListener
}

func (c *hangConn) Read(p []byte) (int, error) {
	for {
		hung, release := c.owner.gate()
		if !hung {
			return c.Conn.Read(p)
		}
		select {
		case <-release:
			// Resumed; loop to re-check (a test may Hang again).
		case <-c.owner.closed:
			return 0, net.ErrClosed
		}
	}
}
