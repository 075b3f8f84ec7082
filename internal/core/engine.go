package core

import (
	"sync"
	"sync/atomic"

	"memtx/internal/engine"
)

// Each Engine hands out its own object ids and transaction ids from a
// per-engine counter (Engine.idSrc). Transaction ids double as allocation
// fingerprints (Obj.creator) and are never reused, which makes stale
// ownership records and stale creator tags harmless. Ids are only ever
// compared for equality within one engine — handles never legally cross
// engines — so independent engines (one per kv shard) may reuse the same
// numeric ids without ambiguity, and no process-global counter is needed.
//
// The counter is consumed in blocks of idBlockStride (see idAlloc): every
// transaction and every engine holds a private block and refills it from the
// engine counter only once per stride, so Alloc-heavy transactions on
// different cores stop ping-ponging this cache line. Blocks abandoned by
// pooled transactions leave gaps in the id space; gaps are harmless because
// ids are only ever compared for equality, never for adjacency, and are
// never reused.

// idBlockStride is the number of ids reserved per refill. 1024 keeps
// per-engine contention at one atomic add per ~1k allocations while wasting
// at most ~8 KiB of id space (out of 2^64) per idle pooled transaction.
const idBlockStride = 1024

// idAlloc is a private block of pre-reserved ids refilled from src (the
// owning engine's counter). The zero value is unusable; bind src before the
// first take. It is not safe for concurrent use; each transaction (and each
// engine, mutex-guarded) owns one.
type idAlloc struct {
	src         *atomic.Uint64
	next, limit uint64
}

func (a *idAlloc) take() uint64 {
	if a.next == a.limit {
		hi := a.src.Add(idBlockStride)
		a.next, a.limit = hi-idBlockStride+1, hi+1
	}
	id := a.next
	a.next++
	return id
}

// Engine is the direct-update STM engine. Create one with New; the zero
// value is not usable.
type Engine struct {
	cm               ContentionManager
	filterSize       int
	compactThreshold int  // auto-compact read log beyond this length; 0 = off
	checked          bool // verify protocol discipline (tests)

	pool    sync.Pool // *Txn
	stats   engineStats
	metrics engine.Metrics
	cmctl   engine.CM
	signal  commitSignal

	// valSeq advances whenever shared state may have changed: on the first
	// in-place write to each owned object (markDirty's clean→dirty
	// transition, before the write lands) and once per update commit before
	// its release loop. A read-only transaction snapshots it at begin; if it
	// is unchanged at commit and no opened object was owned by another
	// transaction, every optimistic read is still at its recorded version and
	// per-entry validation can be skipped (the read-only fast path).
	valSeq atomic.Uint64

	// idSrc is this engine's id counter (see the idAlloc commentary above);
	// every transaction block and the engine's own block refill from it.
	idSrc atomic.Uint64

	// idMu guards ids, the engine's id block for non-transactional NewObj
	// calls. Transactions allocate from their own unguarded blocks.
	idMu sync.Mutex
	ids  idAlloc
}

// engineStats holds cumulative counters, updated with atomics when folding in
// a finished transaction's local counts.
type engineStats struct {
	starts         atomic.Uint64
	commits        atomic.Uint64
	aborts         atomic.Uint64
	openForRead    atomic.Uint64
	openForUpdate  atomic.Uint64
	undoLogged     atomic.Uint64
	readLogEntries atomic.Uint64
	filterHits     atomic.Uint64
	localSkips     atomic.Uint64
	compactions    atomic.Uint64
	readLogDropped atomic.Uint64
	cmWaits        atomic.Uint64
	roFastCommits  atomic.Uint64
}

// Option configures an Engine.
type Option func(*Engine)

// WithContentionManager selects the update-update conflict policy.
// The default is Polite{}.
func WithContentionManager(cm ContentionManager) Option {
	return func(e *Engine) { e.cm = cm }
}

// WithFilterSize sets the per-transaction duplicate-log filter capacity in
// slots (rounded up to a power of two). Zero disables the filter. The
// default of 4096 covers the hot-field working sets of the E1/E2 kernels; E5
// sweeps the size. The table is allocated lazily on a transaction's first
// duplicate check, starts at 64 slots (1.5 KiB), and grows on demand up to
// the capacity (~100 KiB at the default size), so transactions that never
// log pay nothing and small ones pay little; filters whose capacity exceeds
// keepFilterSlots are released when the transaction finishes rather than
// pinned by the pool.
func WithFilterSize(n int) Option {
	return func(e *Engine) { e.filterSize = n }
}

// WithCompaction enables automatic read-log compaction once the read log
// exceeds threshold entries. Zero (default) leaves compaction manual.
func WithCompaction(threshold int) Option {
	return func(e *Engine) { e.compactThreshold = threshold }
}

// WithChecked enables protocol checking: loads and stores verify that the
// object was opened appropriately and that stores were undo-logged. It is
// meant for tests of code using the decomposed API and costs a map lookup per
// access.
func WithChecked(on bool) Option {
	return func(e *Engine) { e.checked = on }
}

// New returns a direct-update STM engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		cm:         Polite{},
		filterSize: 4096,
	}
	for _, o := range opts {
		o(e)
	}
	e.ids.src = &e.idSrc
	e.pool.New = func() any { return newTxn(e) }
	e.signal.init()
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "direct" }

// NewObj allocates a shared object outside any transaction, at version 1.
func (e *Engine) NewObj(nwords, nrefs int) engine.Handle {
	e.idMu.Lock()
	id := e.ids.take()
	e.idMu.Unlock()
	return newObj(id, 0, nwords, nrefs)
}

// internedVersions bounds the table of shared version records: versions
// below it are published as &versionRecs[v] (a 96 KiB table), so committing
// or releasing a young object allocates nothing. A version at or past the
// bound gets a fresh 24-byte record per release, so an object's metadata
// stays one small record at any age.
const internedVersions = 4096

var versionRecs [internedVersions]ownership

func init() {
	for v := range versionRecs {
		versionRecs[v].version = uint64(v)
	}
}

// versionRec returns an immutable version record for v.
//
// Sharing is safe because version records are compared by value everywhere
// except the OpenForUpdate CAS, which only needs pointer equality to imply
// "nothing changed since the load". Versions only grow, except across a
// clean rollback, which republishes the displaced record itself (pointer and
// all). So a CAS can succeed across an acquire-and-clean-rollback by another
// transaction — and that is safe, because a clean rollback wrote nothing:
// the object's fields and version are exactly those the CAS's load saw.
// Every other release publishes version+1, which no earlier load can match.
func versionRec(v uint64) *ownership {
	if v < internedVersions {
		return &versionRecs[v]
	}
	return &ownership{version: v}
}

func newObj(id, creator uint64, nwords, nrefs int) *Obj {
	o := &Obj{
		id:      id,
		creator: creator,
		words:   make([]atomic.Uint64, nwords),
		refs:    make([]atomic.Pointer[Obj], nrefs),
	}
	o.meta.Store(versionRec(1))
	return o
}

// Begin implements engine.Engine.
func (e *Engine) Begin() engine.Txn { return e.begin(false) }

// BeginReadOnly implements engine.Engine.
func (e *Engine) BeginReadOnly() engine.Txn { return e.begin(true) }

func (e *Engine) begin(readonly bool) *Txn {
	tx := e.pool.Get().(*Txn)
	tx.start(readonly)
	e.stats.starts.Add(1)
	return tx
}

// Stats implements engine.Engine. Starts is loaded last so that
// Commits + Aborts <= Starts holds in every snapshot, even one taken while
// transactions are in flight.
func (e *Engine) Stats() engine.Stats {
	s := engine.Stats{
		Commits:        e.stats.commits.Load(),
		Aborts:         e.stats.aborts.Load(),
		OpenForRead:    e.stats.openForRead.Load(),
		OpenForUpdate:  e.stats.openForUpdate.Load(),
		UndoLogged:     e.stats.undoLogged.Load(),
		ReadLogEntries: e.stats.readLogEntries.Load(),
		FilterHits:     e.stats.filterHits.Load(),
		LocalSkips:     e.stats.localSkips.Load(),
		Compactions:    e.stats.compactions.Load(),
		ReadLogDropped: e.stats.readLogDropped.Load(),
		CMWaits:        e.stats.cmWaits.Load(),
		ROFastCommits:  e.stats.roFastCommits.Load(),
	}
	s.Starts = e.stats.starts.Load()
	return s
}

// Metrics implements engine.Engine.
func (e *Engine) Metrics() *engine.Metrics { return &e.metrics }

// CM implements engine.Engine. Beyond the retry-loop backoff pacing every
// engine gets from the controller, the direct-update engine consults it at
// OpenForUpdate ownership waits: under the adaptive policy a waiter's karma
// (attempts already lost) extends the contention manager's patience bound
// before CMKill, so long transactions stop starving under skew.
func (e *Engine) CM() *engine.CM { return &e.cmctl }

var _ engine.Engine = (*Engine)(nil)
