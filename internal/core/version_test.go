package core

import (
	"runtime"
	"testing"
	"unsafe"

	"memtx/internal/engine"
)

// TestVersionRecordsInterned pins versionRec's two regimes: versions below
// internedVersions share one record each; older versions get a fresh record.
func TestVersionRecordsInterned(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, internedVersions - 1} {
		r := versionRec(v)
		if r != versionRec(v) || r.version != v || r.ownerID != 0 || r.entry != nil {
			t.Fatalf("versionRec(%d) = %+v, not the shared record", v, *r)
		}
	}
	v := uint64(internedVersions)
	if a, b := versionRec(v), versionRec(v); a == b || a.version != v || b.version != v {
		t.Fatalf("versionRec(%d) past the bound should return fresh records", v)
	}
}

// TestRollbackRepublishes checks what rollback publishes: a clean rollback
// puts back the very record it displaced (so a concurrent OpenForUpdate CAS
// that loaded it still succeeds), a dirty one bumps the version.
func TestRollbackRepublishes(t *testing.T) {
	for _, start := range []uint64{1, internedVersions + 3} {
		e := New()
		o := e.NewObj(1, 0).(*Obj)
		o.meta.Store(versionRec(start))
		before := o.meta.Load()

		tx := e.Begin()
		tx.OpenForUpdate(o)
		tx.Abort()
		if o.meta.Load() != before {
			t.Fatalf("version %d: clean rollback published %+v, want the displaced record", start, *o.meta.Load())
		}

		tx = e.Begin()
		tx.OpenForUpdate(o)
		tx.LogForUndoWord(o, 0)
		tx.StoreWord(o, 0, 9)
		tx.Abort()
		if m := o.meta.Load(); m.ownerID != 0 || m.version != start+1 {
			t.Fatalf("version %d: dirty rollback published %+v, want version %d", start, *m, start+1)
		}
		if got := o.words[0].Load(); got != 0 {
			t.Fatalf("dirty rollback left word %d, want 0", got)
		}
	}
}

// TestCommittedObjectsDoNotPinSlab is the heap bound behind the shared
// version records: each round commits a full slab chunk of objects and keeps
// only one of them reachable. The kept object's STM word must hold neither
// the chunk nor, through the chunk's other entries, the 63 objects that were
// dropped.
func TestCommittedObjectsDoNotPinSlab(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version uint64
	}{
		{"interned", 1},
		{"mature", internedVersions + 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 200
			e := New()
			kept := make([]engine.Handle, 0, rounds)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for r := 0; r < rounds; r++ {
				objs := make([]engine.Handle, slabChunk)
				for i := range objs {
					o := e.NewObj(1, 0).(*Obj)
					o.meta.Store(&ownership{version: tc.version})
					objs[i] = o
				}
				err := engine.Run(e, func(tx engine.Txn) error {
					for _, o := range objs {
						tx.OpenForUpdate(o)
						tx.LogForUndoWord(o, 0)
						tx.StoreWord(o, 0, 1)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, objs[0])
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perObj := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / rounds
			if perObj > 1024 {
				t.Fatalf("each kept object holds %d heap bytes, want <= 1024 (one slab chunk is %d)",
					perObj, slabChunk*int(unsafe.Sizeof(updateEntry{})))
			}
			runtime.KeepAlive(kept)
		})
	}
}

// TestMatureCommitAllocsOneRecord pins the cost of objects past the
// interned bound: committing one allocates exactly its new version record,
// on top of the slab chunk that TestOpenForUpdateAmortizedAlloc bounds.
func TestMatureCommitAllocsOneRecord(t *testing.T) {
	disableGC(t)
	e := New()
	objs := make([]engine.Handle, slabChunk)
	for i := range objs {
		o := e.NewObj(1, 0).(*Obj)
		o.meta.Store(versionRec(internedVersions))
		objs[i] = o
	}
	run := func() {
		tx := e.Begin()
		for _, o := range objs {
			tx.OpenForUpdate(o)
			tx.LogForUndoWord(o, 0)
			tx.StoreWord(o, 0, 7)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg > float64(len(objs))+3 {
		t.Fatalf("committing %d mature objects allocates %.2f per run, want <= %d (one record each plus one slab chunk)",
			len(objs), avg, len(objs)+3)
	}
}
