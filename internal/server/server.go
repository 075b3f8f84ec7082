// Package server is stmkvd's TCP front end: it speaks the length-prefixed
// wire protocol (internal/server/wire) and executes commands against a
// sharded transactional store (internal/kv).
//
// Each accepted connection is served by one goroutine that reads request
// frames, executes them in order, and writes response frames in the same
// order — so clients may pipeline arbitrarily many requests. Responses are
// buffered and flushed only when the input buffer drains, which keeps
// syscall counts low under pipelining without adding latency to lone
// requests.
//
// Pipelined commands are coalesced one window at a time. After reading a
// frame the connection collects every further frame already sitting in its
// input buffer, up to Config.MaxBatch, without ever reading from the network
// mid-window. Each command is parsed once and classified as a read (PING,
// GET, MGET), a write (SET, or INCR with a valid delta, tagged with its key's
// shard), or a single (everything else, including wrong arity and malformed
// bodies). The window then runs in arrival order as maximal runs: a read run
// of any length is one read-only snapshot transaction (a PING-only run skips
// the store), a same-shard write run of two or more — capped at 16, the shape
// a hot-key increment burst takes under a skewed workload — is one
// shard-local write transaction, and everything else runs per command. One
// begin/validate/commit thus covers a whole run instead of one per command.
// Strict in-order pipelining makes this invisible: no other command from the
// connection can interleave with a run, and if a run's transaction fails
// (validation, deadline, an injected panic, an INCR over a non-integer) its
// partial output is discarded and every command in it re-runs through the
// per-command path, each succeeding or failing on its own. Responses are
// assembled directly into per-connection scratch buffers (reused frame, body,
// and output buffers plus a bound kv.Reader), so the steady-state read path
// does not allocate.
//
// Commands that run transactions pass through a semaphore bounding the
// number of in-flight store transactions across all connections
// (Config.MaxInflight): past the bound, connections queue — visible as the
// stmkvd_txns_queued gauge — instead of piling more conflicting
// transactions onto the engine. Shutdown performs a graceful drain: stop
// accepting, let every connection finish the requests it has already
// received, flush, then close.
//
// # Robustness
//
// Under overload or faults the server degrades instead of wedging:
//
//   - Load shedding: with Config.QueueTimeout set, a command that cannot
//     get a transaction slot in time is answered with a retriable BUSY
//     frame — the command did not execute, and the connection stays usable.
//   - Command deadlines: with Config.CmdDeadline set, each command's
//     transactional execution is bounded; a command that exhausts its
//     deadline (e.g. stuck behind a contended object) gets an ERR response
//     instead of holding its connection forever. A coalesced read run is a
//     single optimistic attempt by construction and is not affected.
//   - Slow clients: Config.ReadTimeout bounds how long a client may sit
//     mid-frame (idle connections are never evicted); Config.WriteTimeout
//     bounds each response write. Either expiring evicts the connection.
//   - Panic containment: a panicking command handler (including injected
//     chaos panics) is recovered, its transaction slot released, and the
//     client answered with ERR on a still-usable connection.
//
// # Commands
//
//	PING                       → PONG
//	GET k                      → VAL $n:v | NIL
//	SET k v                    → OK
//	DEL k                      → :1 | :0
//	CAS k old new              → :1 | :0
//	INCR k delta               → :new            (decimal integer values)
//	TRANSFER src dst amount    → :1 | :0         (:0 = insufficient funds)
//	MGET k1 … kn               → VALS a1 … an    (ai = $n:v | NIL)
//	MSET k1 v1 … kn vn         → OK
//
// Every multi-key command is one atomic transaction. Malformed command
// bodies get an ERR $n:msg response on a still-usable connection; framing
// errors are unrecoverable and close it.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memtx"
	"memtx/internal/chaos"
	"memtx/internal/engine"
	"memtx/internal/kv"
	"memtx/internal/obs"
	"memtx/internal/server/wire"
)

// Cmd identifies one protocol command in the per-type counters.
type Cmd int

const (
	CmdPing Cmd = iota
	CmdGet
	CmdSet
	CmdDel
	CmdCAS
	CmdIncr
	CmdTransfer
	CmdMGet
	CmdMSet
	CmdUnknown
	NumCmds
)

var cmdNames = [NumCmds]string{
	"ping", "get", "set", "del", "cas", "incr", "transfer", "mget", "mset", "unknown",
}

// String returns the label used in metric export.
func (c Cmd) String() string { return cmdNames[c] }

// DefaultMaxBatch is the pipeline-window bound used when Config.MaxBatch is
// 0. A read run's read set grows with its size, and a larger read set is
// both more likely to overlap a concurrent write and more expensive to re-run
// on fallback, so the default stays well below what a 32 KiB input buffer
// could physically hold.
const DefaultMaxBatch = 64

// Config tunes a Server; the zero value is usable.
type Config struct {
	// MaxInflight bounds concurrently executing store transactions across
	// all connections (default 128).
	MaxInflight int
	// MaxFrame bounds accepted request frame bodies (default
	// wire.DefaultMaxFrame).
	MaxFrame int
	// MaxBatch bounds how many buffered pipelined commands one window
	// collects for coalescing. 0 selects DefaultMaxBatch; negative values
	// disable coalescing and route every command through the per-command
	// path.
	MaxBatch int
	// ErrorLog receives accept and per-connection I/O errors (default: the
	// log package's standard logger).
	ErrorLog *log.Logger
	// CmdDeadline bounds each command's transactional execution; past it the
	// transaction is abandoned and the client gets an ERR response. A
	// coalesced read run is a single optimistic attempt by construction, so
	// it is not bounded. 0 disables.
	CmdDeadline time.Duration
	// QueueTimeout bounds how long a command waits for an in-flight
	// transaction slot before it is shed with a retriable BUSY response.
	// 0 means wait indefinitely.
	QueueTimeout time.Duration
	// ReadTimeout bounds how long a client may take to deliver the rest of a
	// frame once its first byte has arrived. Idle connections — nothing
	// buffered, no partial frame — are never evicted. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response buffer write; a client that stops
	// reading past it is evicted. 0 disables.
	WriteTimeout time.Duration
}

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// Server serves the stmkvd protocol over TCP. Create with New, start with
// Serve or ListenAndServe, stop with Shutdown.
type Server struct {
	store        *kv.Store
	maxFrame     int
	maxBatch     int // 0 = coalescing disabled
	errorLog     *log.Logger
	sem          chan struct{}
	cmdDeadline  time.Duration
	queueTimeout time.Duration
	readTimeout  time.Duration
	writeTimeout time.Duration

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup

	connsTotal     atomic.Uint64
	protoErrors    atomic.Uint64
	cmds           [NumCmds]atomic.Uint64
	batches        atomic.Uint64
	batchedCmds    atomic.Uint64
	batchFallbacks atomic.Uint64

	writeBatches        atomic.Uint64
	writeBatchedCmds    atomic.Uint64
	writeBatchFallbacks atomic.Uint64
	shed                atomic.Uint64
	panics              atomic.Uint64
	deadlines           atomic.Uint64
	evictions           atomic.Uint64
	diskFull            atomic.Uint64
	readOnly            atomic.Uint64
	active              atomic.Int64
	queued              atomic.Int64
	inflight            atomic.Int64
}

// New builds a server over store.
func New(store *kv.Store, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 128
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatch < 0 {
		cfg.MaxBatch = 0 // coalescing off
	}
	if cfg.ErrorLog == nil {
		cfg.ErrorLog = log.Default()
	}
	return &Server{
		store:        store,
		maxFrame:     cfg.MaxFrame,
		maxBatch:     cfg.MaxBatch,
		errorLog:     cfg.ErrorLog,
		sem:          make(chan struct{}, cfg.MaxInflight),
		cmdDeadline:  max(cfg.CmdDeadline, 0),
		queueTimeout: cfg.QueueTimeout,
		readTimeout:  cfg.ReadTimeout,
		writeTimeout: cfg.WriteTimeout,
		conns:        map[net.Conn]struct{}{},
	}
}

// Store returns the server's store.
func (s *Server) Store() *kv.Store { return s.store }

// CmdCount returns the number of completed commands of one type.
func (s *Server) CmdCount(c Cmd) uint64 { return s.cmds[c].Load() }

// BatchStats returns the read-batching counters: snapshot batches executed
// and how many of them failed validation and re-ran per command.
func (s *Server) BatchStats() (batches, fallbacks uint64) {
	return s.batches.Load(), s.batchFallbacks.Load()
}

// WriteBatchStats returns the write-batching counters: shard-local write
// batches executed, commands answered through them, and batches whose
// transaction failed and re-ran per command.
func (s *Server) WriteBatchStats() (batches, cmds, fallbacks uint64) {
	return s.writeBatches.Load(), s.writeBatchedCmds.Load(), s.writeBatchFallbacks.Load()
}

// RobustStats returns the degradation counters: commands shed with BUSY,
// handler panics recovered, command-deadline errors returned, and slow
// clients evicted.
func (s *Server) RobustStats() (shed, panics, deadlines, evictions uint64) {
	return s.shed.Load(), s.panics.Load(), s.deadlines.Load(), s.evictions.Load()
}

// ObsMetrics exports the server's connection, queueing, and read-batching
// figures for the obs registry.
func (s *Server) ObsMetrics() []obs.Metric {
	gauge := func(v int64) uint64 {
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	ms := []obs.Metric{
		{Name: "stmkvd_connections_active", Help: "Currently open client connections.", Kind: obs.Gauge, Value: gauge(s.active.Load())},
		{Name: "stmkvd_connections_total", Help: "Client connections accepted.", Kind: obs.Counter, Value: s.connsTotal.Load()},
		{Name: "stmkvd_protocol_errors_total", Help: "Malformed frames and command bodies received.", Kind: obs.Counter, Value: s.protoErrors.Load()},
		{Name: "stmkvd_read_batches_total", Help: "Read-only snapshot batches executed.", Kind: obs.Counter, Value: s.batches.Load()},
		{Name: "stmkvd_read_batched_commands_total", Help: "Commands answered through read-only snapshot batches.", Kind: obs.Counter, Value: s.batchedCmds.Load()},
		{Name: "stmkvd_read_batch_fallbacks_total", Help: "Batches whose snapshot failed validation and re-ran per command.", Kind: obs.Counter, Value: s.batchFallbacks.Load()},
		{Name: "stmkvd_write_batches_total", Help: "Shard-local write batches executed.", Kind: obs.Counter, Value: s.writeBatches.Load()},
		{Name: "stmkvd_write_batched_commands_total", Help: "Commands answered through shard-local write batches.", Kind: obs.Counter, Value: s.writeBatchedCmds.Load()},
		{Name: "stmkvd_write_batch_fallbacks_total", Help: "Write batches whose transaction failed and re-ran per command.", Kind: obs.Counter, Value: s.writeBatchFallbacks.Load()},
		{Name: "stmkvd_txns_queued", Help: "Commands waiting for an in-flight transaction slot.", Kind: obs.Gauge, Value: gauge(s.queued.Load())},
		{Name: "stmkvd_txns_inflight", Help: "Store transactions currently executing.", Kind: obs.Gauge, Value: gauge(s.inflight.Load())},
		{Name: "stmkvd_shed_total", Help: "Commands shed with BUSY after waiting QueueTimeout for a transaction slot.", Kind: obs.Counter, Value: s.shed.Load()},
		{Name: "stmkvd_panics_recovered_total", Help: "Command handler panics recovered and answered with ERR.", Kind: obs.Counter, Value: s.panics.Load()},
		{Name: "stmkvd_cmd_deadline_total", Help: "Commands that exhausted CmdDeadline and were answered with ERR.", Kind: obs.Counter, Value: s.deadlines.Load()},
		{Name: "stmkvd_slow_client_evictions_total", Help: "Connections evicted for overrunning a read or write timeout.", Kind: obs.Counter, Value: s.evictions.Load()},
		{Name: "stmkvd_diskfull_total", Help: "Writes refused with DISKFULL while the store is degraded read-only.", Kind: obs.Counter, Value: s.diskFull.Load()},
		{Name: "stmkvd_readonly_total", Help: "Writes refused with READONLY because the key's shard quarantined its log.", Kind: obs.Counter, Value: s.readOnly.Load()},
	}
	inuse, objects := heapStats()
	ms = append(ms,
		obs.Metric{Name: "stmkvd_go_heap_inuse_bytes", Help: "Bytes in in-use Go heap spans: live objects plus not yet swept garbage and span slack.", Kind: obs.Gauge, Value: inuse},
		obs.Metric{Name: "stmkvd_go_heap_objects", Help: "Go heap objects allocated and not yet swept.", Kind: obs.Gauge, Value: objects},
	)
	for c := Cmd(0); c < NumCmds; c++ {
		ms = append(ms, obs.Metric{
			Name:   "stmkvd_commands_total",
			Help:   "Completed protocol commands, by type.",
			Kind:   obs.Counter,
			Labels: []obs.Label{{Key: "cmd", Value: c.String()}},
			Value:  s.cmds[c].Load(),
		})
	}
	return ms
}

// heapStats reads the process heap through runtime/metrics, which unlike
// runtime.ReadMemStats does not stop the world. In-use bytes are computed as
// MemStats.HeapInuse is: object bytes plus unused bytes of in-use spans.
func heapStats() (inuseBytes, objects uint64) {
	s := [...]metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/heap/objects:objects"},
	}
	metrics.Read(s[:])
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown; it returns
// ErrServerClosed after a graceful stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// drainWriteGrace bounds how long a draining connection may spend writing
// its final responses to a client that has stopped reading. Without it a
// stalled client mid-write would hold Shutdown until its context expired.
const drainWriteGrace = 1 * time.Second

// Shutdown gracefully drains the server: stop accepting, let every
// connection finish the frames it has already received, then close. If ctx
// expires first the remaining connections are closed hard and ctx's error
// is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	// Poke while still holding s.mu so a connection that observes
	// draining==false cannot clear its read deadline after we set it here —
	// serveConn only touches deadlines under the same lock.
	//
	// The read poke unblocks readers parked in ReadFrame; their loops notice
	// the drain, finish buffered requests, flush, and exit. The write
	// deadline bounds that final flush, so a client that has stopped reading
	// cannot hold the drain past drainWriteGrace.
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Unix(0, 1))
		_ = c.SetWriteDeadline(time.Now().Add(drainWriteGrace))
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// batchEntry is one parsed command held in the pipeline window. Its frame
// buffer and Args backing array are reused across windows, so steady-state
// collection reads and parses without allocating.
type batchEntry struct {
	frame []byte
	cmd   wire.Command
	err   error // parse error, answered with ERR
	id    Cmd
	kind  runKind
	shard int   // key's shard (writes only)
	delta int64 // parsed INCR delta (writes only)
}

// conn is one connection's reusable execution state: response scratch
// buffers, the pipeline window's parsed-command slots, and snapshot and
// write bodies bound once so repeated runs execute without allocating.
type conn struct {
	out      []byte       // response frames accumulated this window
	body     []byte       // response body scratch
	batch    []batchEntry // window slots; len == max(1, maxBatch)
	n        int          // commands collected into the current window
	lo, hi   int          // the run executing: c.batch[lo:hi]
	mark     int          // c.out length at run start (attempt reset point)
	keys     [][]byte     // multi-key command scratch (shard routing)
	reader   *kv.Reader
	wbody    func(t *kv.Tx) error // bound writeBody, reused across runs
	slotHeld bool                 // this connection holds a transaction slot
	qt       *time.Timer          // queue-timeout timer, reused across sheds
	sb       *kv.SyncBatch        // deferred WAL syncs (nil without durability)
}

func (s *Server) newConn() *conn {
	c := &conn{batch: make([]batchEntry, max(s.maxBatch, 1))}
	c.reader = s.store.NewReader(c.snapshotBody)
	c.wbody = c.writeBody
	c.sb = s.store.NewSyncBatch()
	return c
}

// serveConn runs one connection's read-execute-respond loop.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	s.active.Add(1)
	defer s.active.Add(-1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()

	br := bufio.NewReaderSize(nc, 32<<10)
	bw := bufio.NewWriterSize(nc, 32<<10)
	c := s.newConn()
	// Retire deferred durability waits even on an abrupt exit (write error,
	// injected connection kill): the records are already appended, and a
	// successfully-synced cross-shard registration left behind would pin log
	// truncation for no reason. No response rides on this Wait — the client
	// saw no ACK. (On a failed Wait the registrations deliberately stay
	// pinned; see kv.SyncBatch.Wait.)
	defer func() { _ = c.sb.Wait() }()
	for {
		// During a drain, serve the requests already buffered (they were
		// received before the drain) and stop once the buffer is empty.
		if s.isDraining() && br.Buffered() == 0 {
			break
		}
		c.out = c.out[:0]
		e := &c.batch[0]
		if s.readTimeout > 0 && br.Buffered() == 0 {
			// Idle between frames: wait for the first byte with no deadline
			// (idle clients are never evicted), then bound delivery of the
			// rest of the frame. Deadlines move only under s.mu so a drain
			// poke cannot be overwritten after it was set.
			s.mu.Lock()
			if s.draining {
				s.mu.Unlock()
				break
			}
			_ = nc.SetReadDeadline(time.Time{})
			s.mu.Unlock()
			if _, err := br.Peek(1); err != nil {
				break // EOF, drain poke, or a dead peer: nothing to answer
			}
			s.mu.Lock()
			if !s.draining {
				_ = nc.SetReadDeadline(time.Now().Add(s.readTimeout))
			}
			s.mu.Unlock()
		}
		frame, err := wire.ReadFrameInto(br, s.maxFrame, e.frame)
		if err != nil {
			if err == io.EOF {
				break // clean disconnect between frames
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if s.isDraining() {
					break // drain poke
				}
				// Mid-frame past ReadTimeout: a stalled or byte-dribbling
				// client; evict it.
				s.evictions.Add(1)
				s.errorLog.Printf("server: evicting slow client %s: %v", nc.RemoteAddr(), err)
				break
			}
			// Framing is lost: report once, then close.
			s.protoErrors.Add(1)
			c.out = wire.AppendFrame(c.out, c.errBody(err))
			_, _ = bw.Write(c.out)
			break
		}
		if connChaos(chaos.FrameRead) {
			return // injected connection kill after a read
		}
		e.frame = frame
		frameErr := s.collect(c, br)
		s.runWindow(c)
		if frameErr != nil {
			// Framing is lost after the collected commands: answer it after
			// them, then close.
			s.protoErrors.Add(1)
			c.out = wire.AppendFrame(c.out, c.errBody(frameErr))
		}
		if connChaos(chaos.RespWrite) {
			return // injected connection kill before a write
		}
		s.armWriteDeadline(nc)
		// No response byte may reach the client before the WAL records backing
		// it are durable. Deferred syncs drain at the flush boundary below; a
		// response that would overflow the write buffer (forcing bufio to
		// flush mid-window) must drain them first.
		if c.sb.Pending() && bw.Available() < len(c.out) {
			if err := c.sb.Wait(); err != nil {
				s.writeErr(nc, err)
				return
			}
		}
		if _, err := bw.Write(c.out); err != nil {
			s.writeErr(nc, err)
			return
		}
		if frameErr != nil {
			break
		}
		// Flush only when no further pipelined request is already buffered.
		if br.Buffered() == 0 {
			if err := c.sb.Wait(); err != nil {
				s.writeErr(nc, err)
				return
			}
			if err := bw.Flush(); err != nil {
				s.writeErr(nc, err)
				return
			}
		}
	}
	s.armWriteDeadline(nc)
	// A wedged log means the buffered responses' records never became
	// durable: drop the connection without flushing them (an unacknowledged
	// write may be retried; an acknowledged-then-lost one is corruption).
	if err := c.sb.Wait(); err != nil {
		s.writeErr(nc, err)
		return
	}
	_ = bw.Flush()
}

// connChaos runs one chaos injection point on the connection's I/O path.
// Delays sleep in place; aborts and panics both report kill — at the
// transport layer the only meaningful fault is dropping the connection.
func connChaos(p chaos.Point) (kill bool) {
	in := chaos.Active()
	if in == nil {
		return false
	}
	act, d := in.Decide(p)
	switch act {
	case chaos.ActDelay:
		time.Sleep(d)
	case chaos.ActAbort, chaos.ActPanic:
		return true
	}
	return false
}

// armWriteDeadline bounds the next buffered write when WriteTimeout is
// configured. During a drain the Shutdown poke's drainWriteGrace deadline
// stays in force.
func (s *Server) armWriteDeadline(nc net.Conn) {
	if s.writeTimeout <= 0 {
		return
	}
	s.mu.Lock()
	if !s.draining {
		_ = nc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	}
	s.mu.Unlock()
}

// writeErr classifies a response-write failure: a timeout outside a drain
// means the client stopped reading and was evicted; anything else is a
// plain disconnect and stays quiet.
func (s *Server) writeErr(nc net.Conn, err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() && !s.isDraining() {
		s.evictions.Add(1)
		s.errorLog.Printf("server: evicting slow client %s: write stalled: %v", nc.RemoteAddr(), err)
	}
}

// runKind is how the coalescer executes a collected command.
type runKind uint8

const (
	// kindSingle runs through the per-command path: a command that is not
	// coalescable, a wrong-arity spelling, or a body that failed to parse.
	kindSingle runKind = iota
	// kindRead is a valid-arity PING, GET, or MGET.
	kindRead
	// kindWrite is a valid-arity SET, or an INCR whose delta parsed.
	kindWrite
)

// collect parses slot 0 (already read) and then pulls every further frame
// already sitting in br's buffer, up to the window size, into c.batch. It
// never reads from the network: FrameBuffered only admits frames that are
// fully buffered. A framing error ends the window and is returned; the
// commands collected before it still run.
func (s *Server) collect(c *conn, br *bufio.Reader) (frameErr error) {
	s.parse(&c.batch[0])
	c.n = 1
	for c.n < len(c.batch) && wire.FrameBuffered(br) {
		e := &c.batch[c.n]
		frame, err := wire.ReadFrameInto(br, s.maxFrame, e.frame)
		if err != nil {
			return err
		}
		e.frame = frame
		s.parse(e)
		c.n++
	}
	return nil
}

// parse parses e's frame once and classifies it into a run kind, stashing an
// INCR's delta and a write's shard for the executor. With coalescing off
// every command is a single.
func (s *Server) parse(e *batchEntry) {
	e.kind = kindSingle
	if e.err = wire.ParseCommandInto(e.frame, &e.cmd); e.err != nil {
		return
	}
	e.id = classify(e.cmd.Name)
	if s.maxBatch == 0 {
		return
	}
	args := e.cmd.Args
	switch e.id {
	case CmdPing:
		if len(args) == 0 {
			e.kind = kindRead
		}
	case CmdGet:
		if len(args) == 1 {
			e.kind = kindRead
		}
	case CmdMGet:
		if len(args) >= 1 {
			e.kind = kindRead
		}
	case CmdSet:
		if len(args) == 2 {
			e.kind = kindWrite
		}
	case CmdIncr:
		if len(args) == 2 {
			if d, err := kv.ParseInt(args[1].B); err == nil {
				e.delta = d
				e.kind = kindWrite
			}
		}
	}
	if e.kind == kindWrite {
		e.shard = s.store.KeyShard(args[0].B)
	}
}

// maxWriteRun caps a coalesced write run. A write run holds object ownership
// for the whole run and is re-executed wholesale on conflict, so the cap
// stays well below the window size.
const maxWriteRun = 16

// runWindow answers c.batch[:c.n] in arrival order, one maximal run at a
// time: a read run of any length is one snapshot, a same-shard write run of
// two or more (capped at maxWriteRun) is one write transaction, and
// everything else runs per command.
func (s *Server) runWindow(c *conn) {
	for i := 0; i < c.n; {
		e := &c.batch[i]
		j := i + 1
		for j < c.n && joins(e, &c.batch[j], j-i) {
			j++
		}
		switch {
		case e.err != nil:
			s.protoErrors.Add(1)
			c.out = wire.AppendFrame(c.out, c.errBody(e.err))
		case e.kind == kindRead || j-i > 1:
			s.runBatch(c, i, j)
		default:
			c.out = wire.AppendFrame(c.out, s.execute(c, &e.cmd, e.id))
			s.cmds[e.id].Add(1)
		}
		i = j
	}
	c.n = 0
}

// joins reports whether next extends the run that head starts, which is n
// commands long so far.
func joins(head, next *batchEntry, n int) bool {
	switch head.kind {
	case kindRead:
		return next.kind == kindRead
	case kindWrite:
		return n < maxWriteRun && next.kind == kindWrite && next.shard == head.shard
	}
	return false
}

// runBatch answers the run c.batch[lo:hi] — all reads or all same-shard
// writes — as one transaction. A shed run answers BUSY for every command,
// none of which ran. If the transaction fails (validation, deadline, a
// non-integer INCR target, a panic) the run's partial output is discarded
// and every command re-runs through the per-command path, each succeeding or
// failing on its own, so coalescing never changes a response.
func (s *Server) runBatch(c *conn, lo, hi int) {
	c.lo, c.hi, c.mark = lo, hi, len(c.out)
	write := c.batch[lo].kind == kindWrite
	batches, cmds, fallbacks := &s.batches, &s.batchedCmds, &s.batchFallbacks
	if write {
		batches, cmds, fallbacks = &s.writeBatches, &s.writeBatchedCmds, &s.writeBatchFallbacks
	}
	batches.Add(1)
	cmds.Add(uint64(hi - lo))
	if err := s.batchTxn(c, write); errors.Is(err, errShed) {
		for i := lo; i < hi; i++ {
			c.out = wire.AppendFrame(c.out, bodyBusy)
		}
	} else if err != nil {
		fallbacks.Add(1)
		c.out = c.out[:c.mark]
		for i := lo; i < hi; i++ {
			e := &c.batch[i]
			c.out = wire.AppendFrame(c.out, s.execute(c, &e.cmd, e.id))
		}
	}
	for i := lo; i < hi; i++ {
		s.cmds[c.batch[i].id].Add(1)
	}
}

// errSnapshot reports a read run whose snapshot did not commit.
var errSnapshot = errors.New("server: read snapshot did not commit")

// batchTxn runs the current run's transaction with panic containment: a
// panic inside it (chaos-injected or real) releases the transaction slot, is
// counted, and reports an error so the run falls back to per-command
// execution, where each command gets its own containment. A read run is a
// single optimistic snapshot attempt; a PING-only run skips the store.
func (s *Server) batchTxn(c *conn, write bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.release(c)
			s.panics.Add(1)
			err = fmt.Errorf("server: batch panic: %v", r)
		}
	}()
	if write {
		c.keys = append(c.keys[:0], c.batch[c.lo].cmd.Args[0].B)
		return s.tx(c, c.keys, false, c.wbody)
	}
	if c.pingsOnly() {
		for i := c.lo; i < c.hi; i++ {
			c.out = wire.AppendFrame(c.out, bodyPong)
		}
		return nil
	}
	if !s.acquire(c) {
		return errShed
	}
	committed, _ := c.reader.RunOnce()
	s.release(c)
	if !committed {
		return errSnapshot
	}
	return nil
}

// pingsOnly reports whether the current run holds nothing but PINGs.
func (c *conn) pingsOnly() bool {
	for i := c.lo; i < c.hi; i++ {
		if c.batch[i].id != CmdPing {
			return false
		}
	}
	return true
}

// snapshotBody answers the current read run against one read-only snapshot,
// appending response frames to c.out. The snapshot may be doomed when this
// runs — RunOnce discards the output on validation failure — but it can
// never tear a value: published byte records are immutable.
func (c *conn) snapshotBody(t *kv.Tx) error {
	for i := c.lo; i < c.hi; i++ {
		e := &c.batch[i]
		switch e.id {
		case CmdPing:
			c.out = wire.AppendFrame(c.out, bodyPong)
		case CmdGet:
			c.body = append(c.body[:0], "VAL "...)
			if b, ok := t.AppendGetBlob(c.body, e.cmd.Args[0].B); ok {
				c.body = b
				c.out = wire.AppendFrame(c.out, c.body)
			} else {
				c.out = wire.AppendFrame(c.out, bodyNil)
			}
		case CmdMGet:
			c.body = append(c.body[:0], "VALS"...)
			for _, a := range e.cmd.Args {
				c.body = append(c.body, ' ')
				if b, ok := t.AppendGetBlob(c.body, a.B); ok {
					c.body = b
				} else {
					c.body = append(c.body, "NIL"...)
				}
			}
			c.out = wire.AppendFrame(c.out, c.body)
		}
	}
	return nil
}

// writeBody applies the current write run inside one transaction, appending
// response frames to c.out. The body may re-run on conflict, so it truncates
// c.out back to the run's start each attempt — output from a doomed attempt
// is never visible to the client. An INCR over a non-integer value aborts the
// whole transaction; the fallback then re-runs each command alone, so the
// SETs land and the INCR earns its ERR exactly as an uncoalesced pipeline
// would.
func (c *conn) writeBody(t *kv.Tx) error {
	c.out = c.out[:c.mark]
	for i := c.lo; i < c.hi; i++ {
		e := &c.batch[i]
		switch e.id {
		case CmdSet:
			t.Set(e.cmd.Args[0].B, e.cmd.Args[1].B)
			c.out = wire.AppendFrame(c.out, bodyOK)
		case CmdIncr:
			after, err := t.Add(e.cmd.Args[0].B, e.delta)
			if err != nil {
				return err
			}
			c.out = wire.AppendFrame(c.out, c.intBody(after))
		}
	}
	return nil
}

// classify maps a command name to its Cmd. The canonical upper- and
// lowercase spellings match without allocating (their names are interned by
// the parser); mixed-case spellings pay one ToUpper allocation.
func classify(name string) Cmd {
	switch name {
	case "PING", "ping":
		return CmdPing
	case "GET", "get":
		return CmdGet
	case "SET", "set":
		return CmdSet
	case "DEL", "del":
		return CmdDel
	case "CAS", "cas":
		return CmdCAS
	case "INCR", "incr":
		return CmdIncr
	case "TRANSFER", "transfer":
		return CmdTransfer
	case "MGET", "mget":
		return CmdMGet
	case "MSET", "mset":
		return CmdMSet
	default:
		if up := strings.ToUpper(name); up != name {
			return classify(up)
		}
		return CmdUnknown
	}
}

// Response bodies reused across commands. BUSY is the retriable shed
// response: the command did not execute and may be resent as-is.
var (
	bodyPong = []byte("PONG")
	bodyOK   = []byte("OK")
	bodyNil  = []byte("NIL")
	bodyInt0 = []byte(":0")
	bodyInt1 = []byte(":1")
	bodyBusy = []byte("BUSY")
	// DISKFULL and READONLY are retriable like BUSY: the write was rejected
	// before any state changed. DISKFULL means the store is degraded
	// read-only on a full disk; READONLY means the key's shard quarantined
	// its log after a disk error. Reads keep working under both.
	bodyDiskFull = []byte("DISKFULL")
	bodyReadOnly = []byte("READONLY")
)

// errBody renders err as an "ERR $n:msg" body (the encoding AppendCommand
// would produce) into c's scratch.
func (c *conn) errBody(err error) []byte {
	msg := err.Error()
	c.body = append(c.body[:0], "ERR $"...)
	c.body = strconv.AppendInt(c.body, int64(len(msg)), 10)
	c.body = append(c.body, ':')
	c.body = append(c.body, msg...)
	return c.body
}

// intBody renders ":v" into c's scratch; 0 and 1 — the booleans of the
// protocol — come from static bodies.
func (c *conn) intBody(v int64) []byte {
	if v == 0 {
		return bodyInt0
	}
	if v == 1 {
		return bodyInt1
	}
	c.body = append(c.body[:0], ':')
	c.body = strconv.AppendInt(c.body, v, 10)
	return c.body
}

var errArity = errors.New("server: wrong number of arguments")

// acquire claims an in-flight transaction slot for c, waiting at most
// QueueTimeout when the server is saturated. It reports false when the
// command must be shed: the caller answers BUSY without executing. The
// uncontended path is one nonblocking channel send — no gauge churn, no
// timer — so an unsaturated server pays nothing for shedding support.
func (s *Server) acquire(c *conn) bool {
	select {
	case s.sem <- struct{}{}:
	default:
		s.queued.Add(1)
		if s.queueTimeout <= 0 {
			s.sem <- struct{}{}
		} else {
			if c.qt == nil {
				c.qt = time.NewTimer(s.queueTimeout)
			} else {
				c.qt.Reset(s.queueTimeout)
			}
			select {
			case s.sem <- struct{}{}:
				if !c.qt.Stop() {
					<-c.qt.C
				}
			case <-c.qt.C:
				s.queued.Add(-1)
				s.shed.Add(1)
				return false
			}
		}
		s.queued.Add(-1)
	}
	s.inflight.Add(1)
	c.slotHeld = true
	return true
}

// release returns c's transaction slot if held. It is idempotent so the
// panic-recovery paths can release unconditionally without tracking whether
// the normal path already did.
func (s *Server) release(c *conn) {
	if !c.slotHeld {
		return
	}
	c.slotHeld = false
	s.inflight.Add(-1)
	<-s.sem
}

// errShed reports a command shed after waiting QueueTimeout for a
// transaction slot; it is answered with BUSY.
var errShed = errors.New("server: shed")

// tx runs body as one transaction over the shards keys hash to, holding an
// in-flight transaction slot: locally when they co-locate, through the
// cross-shard commit path otherwise, bounded by CmdDeadline when one is
// configured. It returns errShed, without running body, when no slot frees
// up in time. On a durable store a write's fsync wait is deferred into c's
// SyncBatch — serveConn syncs before any response reaches the wire, so
// pipelined writes in one window share one group-commit wait per shard
// instead of parking per command.
func (s *Server) tx(c *conn, keys [][]byte, readonly bool, body func(t *kv.Tx) error) error {
	if !s.acquire(c) {
		return errShed
	}
	r := kv.Req{Keys: keys, ReadOnly: readonly, Opts: memtx.TxOptions{MaxElapsed: s.cmdDeadline}, Sync: c.sb}
	err := s.store.Run(nil, r, body)
	s.release(c)
	return err
}

// cmdErr renders a command error, counting deadline/budget exhaustion on
// the way through. A shed command gets BUSY, and disk-health refusals from
// the store become the typed retriable bodies DISKFULL and READONLY instead
// of generic ERR, so clients can tell "back off and retry later" from a
// programming error.
func (s *Server) cmdErr(c *conn, err error) []byte {
	if errors.Is(err, errShed) {
		return bodyBusy
	}
	if errors.Is(err, kv.ErrDiskFull) {
		s.diskFull.Add(1)
		return bodyDiskFull
	}
	if errors.Is(err, kv.ErrWALQuarantined) {
		s.readOnly.Add(1)
		return bodyReadOnly
	}
	var te *engine.TimeoutError
	if errors.As(err, &te) {
		s.deadlines.Add(1)
	}
	return c.errBody(err)
}

// execute runs one command through the per-command path — the path for
// every command the coalescer does not batch, and the fallback for a run
// whose transaction failed. It contains handler panics: the transaction slot
// is released, the panic counted, and the client answered with ERR on a
// still-usable connection. The returned body may be backed by c's scratch
// and is valid only until c's next use.
func (s *Server) execute(c *conn, cmd *wire.Command, id Cmd) (resp []byte) {
	defer func() {
		if r := recover(); r != nil {
			s.release(c)
			s.panics.Add(1)
			resp = c.errBody(fmt.Errorf("server: handler panic: %v", r))
		}
	}()
	if in := chaos.Active(); in != nil {
		in.Step(chaos.Handler)
	}
	return s.executeCmd(c, cmd, id)
}

func (s *Server) executeCmd(c *conn, cmd *wire.Command, id Cmd) []byte {
	args := cmd.Args
	switch id {
	case CmdPing:
		if len(args) != 0 {
			return c.errBody(errArity)
		}
		return bodyPong

	case CmdGet:
		if len(args) != 1 {
			return c.errBody(errArity)
		}
		var v []byte
		var ok bool
		if err := s.tx(c, [][]byte{args[0].B}, true, func(t *kv.Tx) error {
			v, ok = t.Get(args[0].B)
			return nil
		}); err != nil {
			return s.cmdErr(c, err)
		}
		if !ok {
			return bodyNil
		}
		c.body = wire.AppendCommand(c.body[:0], "VAL", wire.Blob(v))
		return c.body

	case CmdSet:
		if len(args) != 2 {
			return c.errBody(errArity)
		}
		if err := s.tx(c, [][]byte{args[0].B}, false, func(t *kv.Tx) error {
			t.Set(args[0].B, args[1].B)
			return nil
		}); err != nil {
			return s.cmdErr(c, err)
		}
		return bodyOK

	case CmdDel:
		if len(args) != 1 {
			return c.errBody(errArity)
		}
		removed := false
		if err := s.tx(c, [][]byte{args[0].B}, false, func(t *kv.Tx) error {
			removed = t.Delete(args[0].B)
			return nil
		}); err != nil {
			return s.cmdErr(c, err)
		}
		return boolBody(removed)

	case CmdCAS:
		if len(args) != 3 {
			return c.errBody(errArity)
		}
		swapped := false
		if err := s.tx(c, [][]byte{args[0].B}, false, func(t *kv.Tx) error {
			swapped = t.CompareAndSet(args[0].B, args[1].B, args[2].B)
			return nil
		}); err != nil {
			return s.cmdErr(c, err)
		}
		return boolBody(swapped)

	case CmdIncr:
		if len(args) != 2 {
			return c.errBody(errArity)
		}
		delta, err := kv.ParseInt(args[1].B)
		if err != nil {
			return c.errBody(err)
		}
		var after int64
		if err := s.tx(c, [][]byte{args[0].B}, false, func(t *kv.Tx) error {
			var err error
			after, err = t.Add(args[0].B, delta)
			return err
		}); err != nil {
			return s.cmdErr(c, err)
		}
		return c.intBody(after)

	case CmdTransfer:
		if len(args) != 3 {
			return c.errBody(errArity)
		}
		amount, err := kv.ParseInt(args[2].B)
		if err != nil {
			return c.errBody(err)
		}
		if amount < 0 {
			return c.errBody(errors.New("server: negative transfer amount"))
		}
		ok := false
		c.keys = append(c.keys[:0], args[0].B, args[1].B)
		if err := s.tx(c, c.keys, false, func(t *kv.Tx) error {
			ok = false
			src, err := t.Int(args[0].B)
			if err != nil {
				return err
			}
			if src < amount {
				return nil // insufficient funds: commit unchanged
			}
			t.SetInt(args[0].B, src-amount)
			dst, err := t.Int(args[1].B)
			if err != nil {
				return err
			}
			t.SetInt(args[1].B, dst+amount)
			ok = true
			return nil
		}); err != nil {
			return s.cmdErr(c, err)
		}
		return boolBody(ok)

	case CmdMGet:
		if len(args) == 0 {
			return c.errBody(errArity)
		}
		vals := make([]wire.Arg, len(args))
		c.keys = c.keys[:0]
		for _, a := range args {
			c.keys = append(c.keys, a.B)
		}
		if err := s.tx(c, c.keys, true, func(t *kv.Tx) error {
			for i, a := range args {
				if v, ok := t.Get(a.B); ok {
					vals[i] = wire.Blob(v)
				} else {
					vals[i] = wire.Bare("NIL")
				}
			}
			return nil
		}); err != nil {
			return s.cmdErr(c, err)
		}
		c.body = wire.AppendCommand(c.body[:0], "VALS", vals...)
		return c.body

	case CmdMSet:
		if len(args) == 0 || len(args)%2 != 0 {
			return c.errBody(errArity)
		}
		c.keys = c.keys[:0]
		for i := 0; i < len(args); i += 2 {
			c.keys = append(c.keys, args[i].B)
		}
		if err := s.tx(c, c.keys, false, func(t *kv.Tx) error {
			for i := 0; i < len(args); i += 2 {
				t.Set(args[i].B, args[i+1].B)
			}
			return nil
		}); err != nil {
			return s.cmdErr(c, err)
		}
		return bodyOK

	default:
		return c.errBody(errors.New("server: unknown command " + cmd.Name))
	}
}

// boolBody renders a protocol boolean.
func boolBody(b bool) []byte {
	if b {
		return bodyInt1
	}
	return bodyInt0
}
