package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freejoin/internal/chaos"
	"freejoin/internal/obs"
)

// Server accepts TCP connections on cfg.Addr and runs one Session per
// connection over the shared Core. The protocol is line-oriented: the
// client sends one command per line (the ojshell command syntax), the
// server answers with exactly one JSON-encoded Response per line.
//
// Close is graceful and idempotent: it stops accepting, cancels the
// base context (aborting in-flight executions through their
// ExecContexts), unblocks connection reads, and waits for every
// connection goroutine to exit — no goroutine, listener or connection
// outlives it.
type Server struct {
	core *Core
	ln   net.Listener
	mon  *obs.Server // optional monitoring HTTP side

	baseCtx context.Context
	cancel  context.CancelFunc

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg         sync.WaitGroup // connection goroutines
	acceptDone chan struct{}  // closed when the accept loop returns
	closed     atomic.Bool

	lnOnce sync.Once // listener close is idempotent (Drain then Close)
	lnErr  error

	nextSession atomic.Int64
	inflight    atomic.Int64 // commands executing right now (Drain polls this)
	swept       int          // stale spill files reclaimed at startup
}

// Start builds the core, sweeps stale spill run files from the spill
// directory, binds the listeners and begins serving.
func Start(cfg Config) (*Server, error) {
	core, err := NewCore(cfg)
	if err != nil {
		return nil, err
	}
	return StartWithCore(cfg, core)
}

// StartWithCore serves an existing core — tests preload catalogs and
// inspect shared state through it. The spill sweep and the monitoring
// server follow the core's configuration; cfg supplies the listener.
func StartWithCore(cfg Config, core *Core) (*Server, error) {
	swept := core.SweepSpill()
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listener: %w", err)
	}
	if cfg.Chaos != nil {
		ln = chaos.WrapListener(ln, *cfg.Chaos)
	}
	mon, err := core.StartMonitor()
	if err != nil {
		ln.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		core:       core,
		ln:         ln,
		mon:        mon,
		baseCtx:    ctx,
		cancel:     cancel,
		conns:      make(map[net.Conn]struct{}),
		acceptDone: make(chan struct{}),
		swept:      swept,
	}
	go s.acceptLoop()
	return s, nil
}

// Addr is the resolved query-protocol address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MetricsAddr is the resolved monitoring address ("" when disabled).
func (s *Server) MetricsAddr() string {
	if s.mon == nil {
		return ""
	}
	return s.mon.Addr()
}

// Core exposes the shared state (tests preload tables through it).
func (s *Server) Core() *Core { return s.core }

// SweptSpillFiles is how many stale spill run files startup reclaimed.
func (s *Server) SweptSpillFiles() int { return s.swept }

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		obs.ServerConnectionsActive.Inc()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Connection-hygiene sentinel errors from readLine.
var (
	errLineTooLong = errors.New("protocol line exceeds the server's maximum line length")
	errIdleTimeout = errors.New("idle timeout: no command received")
)

// readLine reads one newline-terminated line, enforcing the max-line
// bound and the idle timeout. The busy flag marks a command mid-
// execution: a read-deadline expiry then is a client patiently awaiting
// its response, not an idle session, so the deadline is re-armed instead
// of disconnecting.
func (s *Server) readLine(conn net.Conn, r *bufio.Reader, busy *atomic.Bool) (string, error) {
	maxLine := s.core.cfg.maxLineBytes()
	idle := s.core.cfg.idleTimeout()
	var buf []byte
	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		frag, err := r.ReadSlice('\n')
		buf = append(buf, frag...)
		if maxLine > 0 && len(buf) > maxLine {
			return "", errLineTooLong
		}
		switch {
		case err == nil:
			return strings.TrimRight(string(buf), "\r\n"), nil
		case err == bufio.ErrBufferFull:
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if busy.Load() {
				continue
			}
			return "", errIdleTimeout
		}
		return "", err
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		obs.ServerConnectionsActive.Dec()
	}()
	// The connection context parents every command execution: server
	// shutdown cancels it through baseCtx, and the reader goroutine
	// cancels it the moment the client vanishes — so a mid-execute
	// disconnect aborts the query and drains its grant instead of running
	// for a client that will never read the answer.
	connCtx, connCancel := context.WithCancel(s.baseCtx)
	defer connCancel()

	// Each response, the hello line included, is one pooled buffer, one Write.
	write := func(resp Response) bool {
		buf := respBufs.Get().(*[]byte)
		*buf = append(resp.AppendJSON(*buf), '\n')
		if wt := s.core.cfg.writeTimeout(); wt > 0 {
			conn.SetWriteDeadline(time.Now().Add(wt))
		}
		_, err := conn.Write(*buf)
		putRespBuf(buf)
		return err == nil
	}

	id := s.nextSession.Add(1)
	sess := NewSession(s.core)
	if !write(Response{OK: true,
		Output: fmt.Sprintf("freejoin server session %d (help for commands)", id)}) {
		return
	}

	// Reads run in their own goroutine so the main loop can multiplex
	// incoming lines against connection cancellation.
	type readResult struct {
		line string
		err  error
	}
	lines := make(chan readResult)
	var busy atomic.Bool
	go func() {
		r := bufio.NewReaderSize(conn, 4096)
		for {
			line, err := s.readLine(conn, r, &busy)
			if err != nil && !errors.Is(err, errLineTooLong) && !errors.Is(err, errIdleTimeout) {
				// Disconnect (EOF, reset, injected drop): cancel first so an
				// executing command aborts now, not when it finishes.
				connCancel()
				return
			}
			select {
			case lines <- readResult{line, err}:
			case <-connCtx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()

	for {
		select {
		case <-connCtx.Done():
			return
		case rr := <-lines:
			if rr.err != nil {
				// Protocol and idle violations get one typed response
				// before the connection closes.
				switch {
				case errors.Is(rr.err, errLineTooLong):
					obs.ServerProtocolErrors.Inc()
					write(errResp(CodeProtocol, fmt.Errorf("%w (%d bytes)", rr.err, s.core.cfg.maxLineBytes())))
				case errors.Is(rr.err, errIdleTimeout):
					write(errResp(CodeIdleTimeout, rr.err))
				}
				return
			}
			line := strings.TrimSpace(rr.line)
			if line == "" || strings.HasPrefix(line, "--") {
				continue
			}
			if line == "quit" || line == "exit" || line == `\q` {
				write(Response{OK: true, Output: "bye"})
				return
			}
			busy.Store(true)
			s.inflight.Add(1)
			resp := sess.SafeExec(connCtx, line)
			s.inflight.Add(-1)
			busy.Store(false)
			if !write(resp) {
				return
			}
		}
	}
}

// closeListener closes the query listener exactly once; Drain and Close
// both stop accepting, in either order.
func (s *Server) closeListener() error {
	s.lnOnce.Do(func() { s.lnErr = s.ln.Close() })
	return s.lnErr
}

// Health reports the server's /healthz status: "draining" during
// graceful shutdown, "degraded" while shedding load, "ok" otherwise.
func (s *Server) Health() string { return s.core.Health() }

// Drain shuts the server down gracefully: stop accepting connections,
// reject new queries with a typed "draining" code, let every in-flight
// command run to completion, then Close. ctx bounds the wait; on expiry
// the remaining work is aborted by Close and ctx.Err() is returned.
func (s *Server) Drain(ctx context.Context) error {
	if s == nil {
		return nil
	}
	s.core.StartDraining()
	s.closeListener()
	<-s.acceptDone
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		st := s.core.adm.Stats()
		if st.Active == 0 && st.Queued == 0 && s.inflight.Load() == 0 {
			return s.Close()
		}
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close shuts the server down. Safe to call repeatedly and on nil; for
// a graceful shutdown that finishes in-flight queries first, use Drain.
func (s *Server) Close() error {
	if s == nil || s.closed.Swap(true) {
		return nil
	}
	// Abort in-flight executions first so connection goroutines finish
	// their current command quickly...
	s.cancel()
	// ...stop accepting...
	err := s.closeListener()
	<-s.acceptDone
	// ...unblock reads so every connection goroutine observes EOF...
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// ...and wait for them all.
	s.wg.Wait()
	if s.mon != nil {
		if merr := s.mon.Close(); err == nil {
			err = merr
		}
	}
	// Close the file-backed slow-query log (if configured) now that no
	// query can append to it.
	s.core.tracer.Slow().CloseJSONFile()
	return err
}
