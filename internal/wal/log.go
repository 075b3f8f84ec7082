package wal

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memtx/internal/chaos"
	"memtx/internal/wal/walfs"
)

// Options configures a shard log (and, via the Manager, all of them).
type Options struct {
	// Dir is the WAL root; each shard logs under Dir/shard-NNNN/.
	Dir string
	// FsyncBatch is the target group-commit size: a group leader fsyncs as
	// soon as this many records are pending, or FsyncInterval elapses,
	// whichever is first. 1 fsyncs every commit; 0 disables fsync entirely
	// (records are still written, so a clean shutdown loses nothing, but a
	// crash can lose the OS-buffered tail).
	FsyncBatch int
	// FsyncInterval bounds how long a group leader waits for FsyncBatch
	// records to accumulate. 0 flushes immediately, so groups form only from
	// commits that arrive while a previous fsync is in flight.
	FsyncInterval time.Duration
	// SegmentBytes is the ceiling on the active segment's size: it rotates
	// once it reaches this many bytes. 0 means the 64 MiB default. A
	// checkpoint rolls a segment that outgrew its snapshot earlier (see
	// requestRoll), so this limit binds only for stores that never
	// checkpoint.
	SegmentBytes int64
	// AppendQueue sizes the append pipeline: appends reserve an LSN and
	// enqueue a pre-encoded record under the log mutex, and a per-shard
	// appender goroutine drains the queue in LSN order with vectored batch
	// writes. 0 selects the default capacity (1024); a negative value
	// disables the pipeline, making appends encode into the shared buffer
	// synchronously as in the pre-pipeline path.
	AppendQueue int
	// FS is the storage layer all WAL file I/O goes through. Nil selects the
	// OS passthrough; tests substitute walfs.Mem / walfs.Fault for crash-point
	// exploration and disk-fault injection.
	FS walfs.FS
	// ScrubInterval is how often the Manager's background scrubber verifies
	// sealed segments and snapshots (0 disables scrubbing).
	ScrubInterval time.Duration
}

const (
	defaultSegmentBytes = 64 << 20
	defaultAppendQueue  = 1024
	// iovMax caps records per vectored write: linux guarantees IOV_MAX >= 1024.
	iovMax = 1024
)

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return defaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) fs() walfs.FS {
	if o.FS == nil {
		return walfs.OS()
	}
	return o.FS
}

func (o Options) queueCap() int {
	if o.AppendQueue < 0 {
		return 0
	}
	if o.AppendQueue == 0 {
		return defaultAppendQueue
	}
	return o.AppendQueue
}

const segSuffix = ".seg"

// segName returns the segment file name for a segment whose records all have
// LSN >= first.
func segName(first uint64) string {
	return fmt.Sprintf("%020d%s", first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	s, ok := strings.CutSuffix(name, segSuffix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Log is one shard's write-ahead log: segmented files fed either by an append
// pipeline (the default) or a shared in-memory buffer, with leader-based
// group commit on top.
//
// In pipeline mode an append only reserves the next LSN and enqueues a
// pre-encoded record under a short mutex; a dedicated appender goroutine
// drains the queue in LSN order, seals CRCs, and writes whole batches with
// one vectored write each. The appender owns all file I/O — segment writes,
// rotation, and fsyncs — so group-commit leaders post durability requests
// and wait instead of touching the file themselves. Commit critical sections
// therefore never wait on I/O; only Sync does.
type Log struct {
	dir   string
	opts  Options
	fs    walfs.FS
	shard int

	// mu guards the append state: LSNs, the queue (or buffer), the rotation
	// decision, and the pipeline's request/progress fields.
	mu       sync.Mutex
	f        walfs.File
	segSize  int64
	buf      []byte // buffered mode only
	nextLSN  uint64 // LSN the next append will take
	appended uint64 // last LSN handed out (0 = none yet)
	pending  int    // records appended but not yet covered by a flush/sync
	failed   error  // sticky first write/fsync error; the log is wedged after
	rollReq  bool   // a checkpoint asked to roll the active segment

	// Append pipeline state (queueCap > 0). The appender goroutine is the
	// only writer of written (below) and fsynced and the only party doing
	// file I/O.
	queueCap     int
	queue        []*Enc     // records reserved but not yet written, LSN order
	qspare       []*Enc     // double-buffer for queue swaps
	acond        *sync.Cond // appender wakeup: work queued, sync request, close
	pcond        *sync.Cond // sync waiters: written/fsynced/failed progressed
	spaceCond    *sync.Cond // enqueuers blocked on a full queue
	fsynced      uint64     // last LSN covered by a real fsync
	unsynced     int        // records written but not yet covered by a sync
	syncReq      uint64     // highest LSN a leader asked to make durable
	syncForce    bool       // fsync even when FsyncBatch == 0 (Flush/Close)
	closing      bool
	vecs         [][]byte // appender's reusable writev buffer table
	appenderDone chan struct{}

	// Cross-shard write order (pipeline mode, logs of one Manager): peers
	// are every shard's log, indexed by shard; prog is their shared
	// progress signal. written is the last LSN written to the segment file
	// and wedged mirrors failed != nil; both are atomic so peers' appenders
	// read them without the log mutex.
	peers   []*Log
	prog    *progress
	written atomic.Uint64
	wedged  atomic.Bool

	// batchFull is signalled (capacity 1, non-blocking) when pending reaches
	// FsyncBatch, so a waiting group leader can flush early.
	batchFull chan struct{}

	// Group-commit leadership. synced is the last durable LSN (last written
	// LSN when fsync is disabled).
	gmu     sync.Mutex
	gcond   *sync.Cond
	leading bool
	synced  atomic.Uint64

	appends       atomic.Uint64
	appendBytes   atomic.Uint64
	fsyncs        atomic.Uint64
	flushedRecs   atomic.Uint64
	maxGroup      atomic.Uint64
	rotations     atomic.Uint64
	truncatedSeg  atomic.Uint64
	writevCalls   atomic.Uint64
	writevRecs    atomic.Uint64
	writevMaxRecs atomic.Uint64
}

// openLog opens a shard log for appending. Recovery has already scanned the
// directory; nextLSN is one past the last durable (or rescued) record.
// Appends always go to a fresh segment — existing segments are never
// reopened for writing, which keeps the torn-tail rule simple (only the last
// segment may tear).
func openLog(dir string, shard int, nextLSN uint64, opts Options) (*Log, error) {
	fsys := opts.fs()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	l := &Log{
		dir:       dir,
		opts:      opts,
		fs:        fsys,
		shard:     shard,
		nextLSN:   nextLSN,
		appended:  nextLSN - 1,
		fsynced:   nextLSN - 1,
		queueCap:  opts.queueCap(),
		batchFull: make(chan struct{}, 1),
	}
	l.gcond = sync.NewCond(&l.gmu)
	l.synced.Store(nextLSN - 1)
	l.written.Store(nextLSN - 1)
	if err := l.openSegment(nextLSN); err != nil {
		return nil, err
	}
	if l.pipelined() {
		l.acond = sync.NewCond(&l.mu)
		l.pcond = sync.NewCond(&l.mu)
		l.spaceCond = sync.NewCond(&l.mu)
		l.appenderDone = make(chan struct{})
		go l.appendLoop()
	}
	return l, nil
}

// pipelined reports whether the append pipeline is enabled.
func (l *Log) pipelined() bool { return l.queueCap > 0 }

// openSegment creates a new active segment whose records will all have
// LSN >= first. Called with l.mu held (or before the log is shared).
//
// A segment with this exact name can already exist: a shard that saw no
// appends since its last boot reopens at the same nextLSN. Segment names are
// first-LSN lower bounds and nextLSN is one past the highest scanned record,
// so the colliding segment cannot contain any record — it is safe to replace,
// but only when actually empty (anything else is a protocol violation).
func (l *Log) openSegment(first uint64) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := l.fs.Create(path, true)
	if walfs.IsExist(err) {
		var size int64
		size, err = l.fs.Size(path)
		if err != nil {
			return err
		}
		if size != 0 {
			return fmt.Errorf("wal: segment %s already exists with %d bytes at next LSN %d", path, size, first)
		}
		f, err = l.fs.Create(path, false)
	}
	if err != nil {
		return err
	}
	// Make the segment's directory entry durable before any record lands in
	// it: an fsynced record in a file whose entry a crash can drop is not
	// durable at all.
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segSize = 0
	return nil
}

// NextLSN returns the LSN the next append will take. Cross-shard commits
// read this under the shard gates to reserve their participant LSNs.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// AppendedLSN returns the last LSN handed out (0 if none).
func (l *Log) AppendedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// SyncedLSN returns the last durable LSN.
func (l *Log) SyncedLSN() uint64 { return l.synced.Load() }

// Wedged reports whether the log has hit a write or fsync error and is
// permanently rejecting appends and syncs.
func (l *Log) Wedged() bool { return l.wedged.Load() }

// Failed returns the sticky error that wedged the log, or nil.
func (l *Log) Failed() error { return l.stickyErr() }

// QueueDepth returns the number of records reserved but not yet written
// (always 0 in buffered mode).
func (l *Log) QueueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Append appends a pre-encoded record at the next LSN and returns it. The
// record is reserved (and, in pipeline mode, queued), not yet durable; call
// Sync(lsn) to wait for it. The log owns e afterwards.
func (l *Log) Append(e *Enc) (uint64, error) {
	return l.appendEnc(e, 0, false, false)
}

// AppendAt appends a pre-encoded record at the LSN previously reserved for
// this shard (cross-shard commits reserve via NextLSN under the shard gates,
// so the reservation cannot be stolen; a mismatch is a protocol bug).
func (l *Log) AppendAt(lsn uint64, e *Enc) error {
	_, err := l.appendEnc(e, lsn, true, false)
	return err
}

// appendEnc stamps the record's LSN and hands it to the log: queued for the
// appender in pipeline mode, sealed and copied into the shared buffer in
// buffered mode. gapOK permits an explicit LSN past nextLSN (recovery
// re-appending rescued records).
func (l *Log) appendEnc(e *Enc, lsn uint64, explicit, gapOK bool) (uint64, error) {
	l.mu.Lock()
	if l.pipelined() {
		for len(l.queue) >= l.queueCap && l.failed == nil {
			l.spaceCond.Wait()
		}
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		e.Release()
		return 0, err
	}
	switch {
	case !explicit:
		lsn = l.nextLSN
	case gapOK:
		if lsn < l.nextLSN {
			next := l.nextLSN
			l.mu.Unlock()
			e.Release()
			return 0, fmt.Errorf("wal: shard %d append at lsn %d behind next %d", l.shard, lsn, next)
		}
	default:
		if lsn != l.nextLSN {
			next := l.nextLSN
			l.mu.Unlock()
			e.Release()
			panic(fmt.Sprintf("wal: shard %d xcommit at lsn %d but next is %d", l.shard, lsn, next))
		}
	}
	e.stamp(lsn)
	nbytes := len(e.buf)
	if l.pipelined() {
		l.queue = append(l.queue, e)
		l.noteAppend(lsn, nbytes)
		l.acond.Signal()
		l.mu.Unlock()
		return lsn, nil
	}
	e.seal()
	l.buf = append(l.buf, e.buf...)
	l.noteAppend(lsn, nbytes)
	l.mu.Unlock()
	e.Release()
	return lsn, nil
}

// AppendCommit appends a single-shard commit record and returns its LSN. The
// record is not yet durable; call Sync(lsn) to wait for it.
func (l *Log) AppendCommit(ops []Op) (uint64, error) {
	lsn, err := l.Append(EncodeCommit(ops))
	if err != nil {
		return 0, err
	}
	l.chaosAppend()
	return lsn, nil
}

// AppendXCommit appends a cross-shard commit record at the LSN previously
// reserved for this shard in parts. parts must not change afterwards: the
// appender reads it to order the copy after the other participants' logs.
func (l *Log) AppendXCommit(lsn, xid uint64, parts []Part, ops []Op) error {
	e := EncodeXCommit(xid, parts, ops)
	e.peers = parts
	if err := l.AppendAt(lsn, e); err != nil {
		return err
	}
	l.chaosAppend()
	return nil
}

// AppendRecord re-appends an already-decoded record at an explicit LSN —
// recovery uses it to persist rescued cross-shard records into the shard's
// own log. The LSN may leave a gap; it must not go backwards.
func (l *Log) AppendRecord(rec Record) error {
	var e *Enc
	switch rec.Kind {
	case KindCommit:
		e = EncodeCommit(rec.Ops)
	case KindXCommit:
		e = EncodeXCommit(rec.XID, rec.Parts, rec.Ops)
	default:
		return fmt.Errorf("wal: cannot re-append record kind %d", rec.Kind)
	}
	_, err := l.appendEnc(e, rec.LSN, true, true)
	return err
}

// noteAppend advances the LSN state after an append. Called with l.mu held.
func (l *Log) noteAppend(lsn uint64, nbytes int) {
	l.appended = lsn
	l.nextLSN = lsn + 1
	l.pending++
	l.appends.Add(1)
	l.appendBytes.Add(uint64(nbytes))
	if l.opts.FsyncBatch > 0 && l.pending >= l.opts.FsyncBatch {
		select {
		case l.batchFull <- struct{}{}:
		default:
		}
	}
}

func (l *Log) chaosAppend() {
	if in := chaos.Active(); in != nil {
		if _, delay := in.Decide(chaos.WALAppend); delay > 0 {
			time.Sleep(delay)
		}
	}
}

// Sync blocks until the record at lsn is durable (or written, when fsync is
// disabled). One waiter at a time leads: it forms a group — waiting up to
// FsyncInterval for FsyncBatch records — then flushes (buffered mode) or
// posts a durability request to the appender (pipeline mode) and wakes
// everyone the sync covered.
func (l *Log) Sync(lsn uint64) error {
	for {
		if l.synced.Load() >= lsn {
			return l.stickyErr()
		}
		l.gmu.Lock()
		if l.synced.Load() >= lsn {
			l.gmu.Unlock()
			return l.stickyErr()
		}
		if l.leading {
			l.gcond.Wait()
			l.gmu.Unlock()
			continue
		}
		l.leading = true
		l.gmu.Unlock()

		l.waitGroup(lsn)
		var err error
		if l.pipelined() {
			err = l.syncPipelined(false)
		} else {
			err = l.flush(l.opts.FsyncBatch != 0)
		}

		l.gmu.Lock()
		l.leading = false
		l.gcond.Broadcast()
		l.gmu.Unlock()
		if err != nil {
			return err
		}
	}
}

func (l *Log) stickyErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// waitGroup lets the group grow: return early once FsyncBatch records are
// pending, else after FsyncInterval.
func (l *Log) waitGroup(lsn uint64) {
	if l.opts.FsyncBatch <= 1 || l.opts.FsyncInterval <= 0 {
		return
	}
	l.mu.Lock()
	full := l.pending >= l.opts.FsyncBatch
	// Drain a stale signal from a previous group so it cannot cut this
	// group's wait short.
	select {
	case <-l.batchFull:
	default:
	}
	full = full || l.pending >= l.opts.FsyncBatch
	l.mu.Unlock()
	if full {
		return
	}
	timer := time.NewTimer(l.opts.FsyncInterval)
	defer timer.Stop()
	select {
	case <-l.batchFull:
	case <-timer.C:
	}
}

// syncPipelined posts a durability request to the appender and waits until it
// is satisfied. A plain request waits for synced to reach everything appended
// so far (which implies an fsync when fsync is enabled); a forced request
// (Flush/Close) additionally waits for a real fsync covering it, which
// matters when FsyncBatch is 0 and synced advances on write alone.
func (l *Log) syncPipelined(force bool) error {
	l.mu.Lock()
	target := l.appended
	if target > l.syncReq {
		l.syncReq = target
	}
	if force {
		l.syncForce = true
	}
	l.acond.Signal()
	for l.failed == nil && (l.synced.Load() < target || (force && l.fsynced < target)) {
		l.pcond.Wait()
	}
	err := l.failed
	l.mu.Unlock()
	return err
}

// workLocked reports whether the appender has anything to do. l.mu held.
func (l *Log) workLocked() bool {
	return l.failed != nil || l.closing || len(l.queue) > 0 || l.syncForce ||
		l.syncReq > l.synced.Load()
}

// appendLoop is the per-shard appender goroutine: it drains the queue in LSN
// order, writes each drained batch with vectored writes, and fsyncs when a
// group leader asked for durability. It owns all file I/O in pipeline mode.
func (l *Log) appendLoop() {
	defer close(l.appenderDone)
	for {
		l.mu.Lock()
		for !l.workLocked() {
			l.acond.Wait()
		}
		if l.failed != nil {
			for i, e := range l.queue {
				e.Release()
				l.queue[i] = nil
			}
			l.queue = l.queue[:0]
			l.pcond.Broadcast()
			l.spaceCond.Broadcast()
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = l.qspare[:0]
		l.qspare = batch
		req := l.syncReq
		force := l.syncForce
		l.syncForce = false
		done := l.closing && len(batch) == 0 && !force && req <= l.synced.Load()
		if len(batch) > 0 {
			l.spaceCond.Broadcast()
		}
		l.mu.Unlock()
		if done {
			return
		}

		if len(batch) > 0 {
			if err := l.writeBatch(batch); err != nil {
				l.fail(err)
				continue
			}
		}

		l.mu.Lock()
		written := l.written.Load()
		needFsync := force || (l.opts.FsyncBatch != 0 && req > l.synced.Load())
		f := l.f
		l.mu.Unlock()
		if needFsync && f != nil {
			if in := chaos.Active(); in != nil {
				if _, delay := in.Decide(chaos.WALFsync); delay > 0 {
					time.Sleep(delay)
				}
			}
			if err := f.Sync(); err != nil {
				l.fail(err)
				continue
			}
			l.fsyncs.Add(1)
		}
		if needFsync || l.opts.FsyncBatch == 0 {
			l.completeSync(written, needFsync)
		}
	}
}

// completeSync advances synced (and fsynced, after a real fsync) to written
// and wakes sync waiters. Appender only.
func (l *Log) completeSync(written uint64, fsynced bool) {
	l.mu.Lock()
	recs := l.unsynced
	l.unsynced = 0
	l.pending -= recs
	if fsynced && written > l.fsynced {
		l.fsynced = written
	}
	if recs > 0 {
		l.countGroup(recs)
	}
	if written > l.synced.Load() {
		l.synced.Store(written)
	}
	l.pcond.Broadcast()
	l.mu.Unlock()
}

// countGroup records one flushed group of recs records. Both append paths
// call it before publishing synced, so a Sync caller that returns already
// sees its group counted.
func (l *Log) countGroup(recs int) {
	l.flushedRecs.Add(uint64(recs))
	for {
		max := l.maxGroup.Load()
		if uint64(recs) <= max || l.maxGroup.CompareAndSwap(max, uint64(recs)) {
			return
		}
	}
}

// writeBatch seals and writes a drained batch to the active segment — one
// vectored write per chunk of up to iovMax records, chunks split at the size
// limit — rotating after any chunk that makes rotateDueLocked true. Appender
// only, so file I/O never races.
func (l *Log) writeBatch(batch []*Enc) error {
	for _, e := range batch {
		e.seal()
	}
	segMax := l.opts.segmentBytes()
	i := 0
	for i < len(batch) {
		l.waitPeers(batch[i])
		nbytes := 0
		n := 0
		for i+n < len(batch) && n < iovMax {
			e := batch[i+n]
			sz := len(e.buf)
			if n > 0 && (l.segSize+int64(nbytes+sz) >= segMax || !l.peersWritten(e)) {
				break
			}
			nbytes += sz
			n++
		}
		chunk := batch[i : i+n]
		if err := l.writeChunk(chunk, nbytes); err != nil {
			return err
		}
		l.noteWritev(n)
		last := chunk[n-1].lsn()
		l.mu.Lock()
		l.segSize += int64(nbytes)
		l.unsynced += n
		rotate := l.rotateDueLocked()
		f := l.f
		l.mu.Unlock()
		l.written.Store(last)
		l.prog.notify()
		if rotate {
			// last+1 (not nextLSN, which may be ahead of what is written) is
			// the correct first-LSN lower bound for the remaining records.
			if err := l.rotate(last+1, f); err != nil {
				return err
			}
		}
		i += n
	}
	for i, e := range batch {
		e.Release()
		batch[i] = nil
	}
	return nil
}

// progress is the write-progress signal the shard logs of one Manager
// share, so an appender can wait for its peers (waitPeers).
type progress struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int32
}

func newProgress() *progress {
	p := &progress{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// notify wakes appenders waiting on peer progress. Callers store the
// progress first; waiters register before checking it, so a wakeup is never
// lost.
func (p *progress) notify() {
	if p != nil && p.waiters.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// peersWritten reports whether e may be written: unless e is a cross-shard
// commit copy, always; otherwise once every other participant has written
// its log up to the record before its own copy. A wedged peer never will —
// its copy is lost either way — so it does not hold this log back.
func (l *Log) peersWritten(e *Enc) bool {
	for _, p := range e.peers {
		if p.Shard == l.shard || p.Shard >= len(l.peers) {
			continue
		}
		peer := l.peers[p.Shard]
		if peer.written.Load()+1 < p.LSN && !peer.wedged.Load() {
			return false
		}
	}
	return true
}

// waitPeers blocks the appender until peersWritten(e). This is what makes a
// rescue sound: recovery applies a cross-shard commit on a participant that
// lost its copy from a peer's copy, and the copy's absolute values assume
// the participant's log before it. Writing a copy only after every
// participant's log reached it means a crash that keeps any copy keeps
// every participant's log up to its copy — content writes persist in order
// (DESIGN §10.8). Waits cannot cycle: the records waited for were reserved
// before this transaction took its shard gates, so each wait points at an
// earlier transaction.
func (l *Log) waitPeers(e *Enc) {
	if l.peersWritten(e) {
		return
	}
	p := l.prog
	p.mu.Lock()
	p.waiters.Add(1)
	for !l.peersWritten(e) {
		p.cond.Wait()
	}
	p.waiters.Add(-1)
	p.mu.Unlock()
}

// noteWritev records one vectored write of n records.
func (l *Log) noteWritev(n int) {
	l.writevCalls.Add(1)
	l.writevRecs.Add(uint64(n))
	for {
		max := l.writevMaxRecs.Load()
		if uint64(n) <= max || l.writevMaxRecs.CompareAndSwap(max, uint64(n)) {
			break
		}
	}
}

// flush writes the buffered records and (optionally) fsyncs, then advances
// synced. Buffered mode only; the group leader (or Close, after appends have
// stopped) calls it, so file writes never race.
func (l *Log) flush(fsync bool) error {
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	buf := l.buf
	l.buf = nil
	target := l.appended
	recs := l.pending
	l.pending = 0
	l.segSize += int64(len(buf))
	rotateAt := uint64(0)
	if l.rotateDueLocked() {
		rotateAt = l.nextLSN
	}
	f := l.f
	l.mu.Unlock()

	if recs == 0 && !fsync {
		return nil
	}
	// Close set l.f to nil after the final flush; an empty re-flush (a second
	// Close, or Flush on a closed log) has nothing left to make durable.
	if f == nil && len(buf) == 0 {
		return nil
	}
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			return l.fail(err)
		}
	}
	if fsync {
		if in := chaos.Active(); in != nil {
			if _, delay := in.Decide(chaos.WALFsync); delay > 0 {
				time.Sleep(delay)
			}
		}
		if err := f.Sync(); err != nil {
			return l.fail(err)
		}
		l.fsyncs.Add(1)
	}
	l.countGroup(recs)
	l.synced.Store(target)

	if rotateAt > 0 {
		if err := l.rotate(rotateAt, f); err != nil {
			return l.fail(err)
		}
	}
	return nil
}

// rotateDueLocked is the one rotation decision both append paths make after
// writing: the active segment reached SegmentBytes, or a checkpoint asked for
// a roll. l.mu held.
func (l *Log) rotateDueLocked() bool {
	return l.rollReq || l.segSize >= l.opts.segmentBytes()
}

// requestRoll is called after a checkpoint wrote a snapshot of snapBytes
// covering a prefix of this log. Truncation deletes only sealed segments, so
// a covered prefix in the active segment would stay on disk until the size
// limit; when the segment holds more bytes than the snapshot that replaced
// its prefix, ask for it to roll at the next write. The next checkpoint can
// then delete it, so each shard keeps one snapshot plus roughly the records
// appended since the previous checkpoint. One request yields at most one
// roll.
func (l *Log) requestRoll(snapBytes int64) {
	l.mu.Lock()
	if l.segSize > snapBytes {
		l.rollReq = true
	}
	l.mu.Unlock()
}

// rotate fsyncs and closes the full segment, then opens a fresh one whose
// records will all have LSN >= next. The old-segment fsync before the new
// segment exists is what keeps durability prefix-shaped across files.
func (l *Log) rotate(next uint64, old walfs.File) error {
	if err := old.Sync(); err != nil {
		return err
	}
	if err := old.Close(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.openSegment(next); err != nil {
		return err
	}
	l.rollReq = false
	l.rotations.Add(1)
	return nil
}

func (l *Log) fail(err error) error {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = fmt.Errorf("wal: shard %d log failed: %w", l.shard, err)
		l.wedged.Store(true)
		l.prog.notify()
	}
	err = l.failed
	if l.pipelined() {
		// Wake everyone parked on pipeline conditions so they observe the
		// sticky error instead of sleeping forever.
		l.pcond.Broadcast()
		l.spaceCond.Broadcast()
		l.acond.Signal()
	}
	l.mu.Unlock()
	return err
}

// Flush makes everything appended so far durable (an unconditional fsync,
// even when FsyncBatch is 0). Drain and Close use it so a graceful shutdown
// never loses acknowledged writes.
func (l *Log) Flush() error {
	l.gmu.Lock()
	for l.leading {
		l.gcond.Wait()
	}
	l.leading = true
	l.gmu.Unlock()

	var err error
	if l.pipelined() {
		err = l.syncPipelined(true)
	} else {
		err = l.flush(true)
	}

	l.gmu.Lock()
	l.leading = false
	l.gcond.Broadcast()
	l.gmu.Unlock()
	return err
}

// Close flushes and fsyncs outstanding records, stops the appender, and
// closes the active segment. The log must not be appended to afterwards.
func (l *Log) Close() error {
	err := l.Flush()
	if l.pipelined() {
		l.mu.Lock()
		if !l.closing {
			l.closing = true
			l.acond.Signal()
		}
		l.mu.Unlock()
		<-l.appenderDone
	}
	l.mu.Lock()
	f := l.f
	l.f = nil
	l.mu.Unlock()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Truncate deletes every non-active segment fully covered by a checkpoint at
// covered: segment i can go once the next segment's first LSN is <= covered+1
// (all of i's records are <= covered). A segment the scrubber quarantined
// concurrently is already gone and is skipped.
func (l *Log) Truncate(covered uint64) error {
	names, err := segNames(l.fs, l.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(names); i++ {
		if names[i+1] > covered+1 {
			break
		}
		if err := l.fs.Remove(filepath.Join(l.dir, segName(names[i]))); err != nil && !walfs.IsNotExist(err) {
			return err
		}
		l.truncatedSeg.Add(1)
	}
	return nil
}

// logBytes returns the bytes in the shard's live segments: the sealed ones no
// checkpoint has truncated yet plus the active one.
func (l *Log) logBytes() int64 {
	names, err := segNames(l.fs, l.dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, first := range names {
		// A segment truncated since the listing is simply gone.
		if sz, err := l.fs.Size(filepath.Join(l.dir, segName(first))); err == nil {
			n += sz
		}
	}
	return n
}

// segNames lists the segment first-LSNs in dir, ascending.
func segNames(fsys walfs.FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []uint64
	for _, name := range ents {
		if n, ok := parseSegName(name); ok {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names, nil
}

// writeChunk writes every frame in chunk to the active segment with one
// vectored write. Appender only — l.f is stable for the duration (rotation
// happens between chunks, on the same goroutine).
func (l *Log) writeChunk(chunk []*Enc, total int) error {
	vecs := l.vecs[:0]
	for _, e := range chunk {
		if len(e.buf) != 0 {
			vecs = append(vecs, e.buf)
		}
	}
	err := l.f.Writev(vecs)
	// Drop the buffer references so the reused table does not pin pooled
	// record buffers past the write.
	for i := range vecs {
		vecs[i] = nil
	}
	l.vecs = vecs[:0]
	_ = total
	return err
}
