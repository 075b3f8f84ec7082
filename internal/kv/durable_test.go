package kv

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"memtx/internal/wal"
	"memtx/internal/wal/walfs"
)

func testDurableConfig(dir string) DurableConfig {
	return DurableConfig{Dir: dir, FsyncBatch: 1}
}

func openTestStore(t *testing.T, dir string) (*Store, *RecoveryStats) {
	t.Helper()
	s, stats, err := Open(Config{Shards: 4, Buckets: 64}, testDurableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	return s, stats
}

func closeStore(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	for i := 0; i < 200; i++ {
		s.Set([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
	}
	for i := 0; i < 200; i += 3 {
		s.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	if !s.CompareAndSet([]byte("k0001"), []byte("v0001"), []byte("swapped")) {
		t.Fatal("CAS did not swap")
	}
	// A CAS that does not swap must leave no trace in the log.
	if s.CompareAndSet([]byte("k0002"), []byte("wrong"), []byte("bad")) {
		t.Fatal("CAS swapped on mismatch")
	}
	want := s.Len()
	closeStore(t, s)

	s2, stats := openTestStore(t, dir)
	defer closeStore(t, s2)
	if stats.Records == 0 {
		t.Fatalf("no records replayed: %+v", stats)
	}
	if got := s2.Len(); got != want {
		t.Fatalf("reopened store has %d keys, want %d", got, want)
	}
	if v, ok := s2.Get([]byte("k0001")); !ok || string(v) != "swapped" {
		t.Fatalf("k0001 = %q %v, want swapped", v, ok)
	}
	if v, ok := s2.Get([]byte("k0002")); !ok || string(v) != "v0002" {
		t.Fatalf("k0002 = %q %v, want v0002", v, ok)
	}
	if _, ok := s2.Get([]byte("k0003")); ok {
		t.Fatal("deleted key survived reopen")
	}
}

// crossPair returns two keys that hash to different shards.
func crossPair(t *testing.T, s *Store) ([]byte, []byte) {
	t.Helper()
	a := []byte("acct-a")
	for i := 0; i < 1000; i++ {
		b := []byte(fmt.Sprintf("acct-b%03d", i))
		if s.KeyShard(b) != s.KeyShard(a) {
			return a, b
		}
	}
	t.Fatal("no cross-shard pair found")
	return nil, nil
}

func TestDurableCrossShardReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	a, b := crossPair(t, s)
	s.Set(a, []byte("100"))
	s.Set(b, []byte("100"))
	// Cross-shard transfers: the pair's sum must survive any reboot.
	for i := 0; i < 50; i++ {
		err := s.AtomicKeys([][]byte{a, b}, func(t *Tx) error {
			if _, err := t.Add(a, -1); err != nil {
				return err
			}
			_, err := t.Add(b, 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	closeStore(t, s)

	s2, stats := openTestStore(t, dir)
	defer closeStore(t, s2)
	if stats.Records == 0 {
		t.Fatalf("no records replayed: %+v", stats)
	}
	va, _ := s2.Get(a)
	vb, _ := s2.Get(b)
	if string(va) != "50" || string(vb) != "150" {
		t.Fatalf("transfer state %s/%s, want 50/150", va, vb)
	}
}

// sumAll totals every acct- key's integer value.
func sumAll(t *testing.T, s *Store, keys [][]byte) int64 {
	t.Helper()
	var sum int64
	err := s.View(func(tx *Tx) error {
		sum = 0
		for _, k := range keys {
			v, err := tx.Int(k)
			if err != nil {
				return err
			}
			sum += v
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestDurableCrossShardRescue(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	a, b := crossPair(t, s)
	s.Set(a, []byte("1000"))
	s.Set(b, []byte("1000"))
	for i := 0; i < 30; i++ {
		err := s.AtomicKeys([][]byte{a, b}, func(t *Tx) error {
			if _, err := t.Add(a, -2); err != nil {
				return err
			}
			_, err := t.Add(b, 2)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	closeStore(t, s)

	// Simulate a crash that lost the tail of one participant's log: chop
	// bytes off shard A's last segment. The torn/missing xcommit records must
	// be rescued from shard B's log on reboot.
	sidA := s.KeyShard(a)
	shardDir := wal.ShardDir(dir, sidA)
	segs, err := filepath.Glob(filepath.Join(shardDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", shardDir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Chop half the segment: tears the tail record and drops whole records
	// before it.
	if err := os.Truncate(last, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	s2, stats := openTestStore(t, dir)
	defer closeStore(t, s2)
	if stats.Rescued == 0 {
		t.Fatalf("expected rescued records, got %+v", stats)
	}
	if sum := sumAll(t, s2, [][]byte{a, b}); sum != 2000 {
		t.Fatalf("sum %d after rescue, want 2000", sum)
	}
	va, _ := s2.Get(a)
	vb, _ := s2.Get(b)
	if string(va) != "940" || string(vb) != "1060" {
		t.Fatalf("rescued state %s/%s, want 940/1060", va, vb)
	}
}

func TestDurableCheckpointTruncatesAndReplays(t *testing.T) {
	dir := t.TempDir()
	s, err := func() (*Store, error) {
		st, _, err := Open(Config{Shards: 2, Buckets: 64},
			DurableConfig{Dir: dir, FsyncBatch: 1, SegmentBytes: 512})
		return st, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Set([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Small segments: the checkpoint must have truncated covered ones.
	truncated := false
	for _, m := range s.WAL().ObsMetrics() {
		if m.Name == "stmkvd_wal_truncated_segments_total" && m.Value > 0 {
			truncated = true
		}
	}
	if !truncated {
		t.Fatal("checkpoint truncated no segments")
	}
	// Writes after the checkpoint replay over the snapshot on reboot.
	for i := 0; i < 20; i++ {
		s.Set([]byte(fmt.Sprintf("post%02d", i)), []byte("x"))
	}
	want := s.Len()
	closeStore(t, s)

	s2, _, err := Open(Config{Shards: 2, Buckets: 64}, testDurableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s2)
	if got := s2.Len(); got != want {
		t.Fatalf("after checkpoint+replay: %d keys, want %d", got, want)
	}
	if v, ok := s2.Get([]byte("post07")); !ok || string(v) != "x" {
		t.Fatalf("post-checkpoint write lost: %q %v", v, ok)
	}
}

// dirBytes sums the sizes of the files in each shard directory whose names
// end in suffix.
func dirBytes(t *testing.T, fsys walfs.FS, root string, shards int, suffix string) int64 {
	t.Helper()
	var n int64
	for sid := 0; sid < shards; sid++ {
		dir := wal.ShardDir(root, sid)
		names, err := fsys.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if filepath.Ext(name) != suffix {
				continue
			}
			sz, err := fsys.Size(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			n += sz
		}
	}
	return n
}

// TestCheckpointBoundsLogSpace pins the log-space bound at the default
// segment size: once two checkpoints have run, the bytes left in log
// segments are at most the snapshot bytes plus the bytes appended since the
// first checkpoint. Rewriting a small key set many times makes the history
// far larger than the live data, so a log that keeps its covered prefix
// fails the bound. Both append paths are checked.
func TestCheckpointBoundsLogSpace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		queue int
	}{{"pipelined", 0}, {"buffered", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			const shards = 4
			fsys := walfs.NewMem()
			s, _, err := Open(Config{Shards: shards, Buckets: 64},
				DurableConfig{Dir: "wal", FS: fsys, FsyncBatch: 1, AppendQueue: tc.queue})
			if err != nil {
				t.Fatal(err)
			}
			defer closeStore(t, s)
			val := make([]byte, 200)
			rewrite := func(rounds int) {
				for r := 0; r < rounds; r++ {
					for i := 0; i < 64; i++ {
						s.Set([]byte(fmt.Sprintf("k%02d", i)), val)
					}
				}
			}
			rewrite(20)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appended := walMetric(t, s, "stmkvd_wal_append_bytes_total")
			rewrite(3)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			since := int64(walMetric(t, s, "stmkvd_wal_append_bytes_total") - appended)
			logBytes := dirBytes(t, fsys, "wal", shards, ".seg")
			snapBytes := dirBytes(t, fsys, "wal", shards, ".snap")
			if logBytes > snapBytes+since {
				t.Fatalf("after two checkpoints the log holds %d bytes > snapshots %d + appended since the first checkpoint %d",
					logBytes, snapBytes, since)
			}
			if got := walMetric(t, s, "stmkvd_wal_log_bytes"); int64(got) != logBytes {
				t.Fatalf("stmkvd_wal_log_bytes = %d, segments on disk hold %d", got, logBytes)
			}
			// One checkpoint-requested roll per shard, and the second
			// checkpoint deleted each rolled segment.
			if got := walMetric(t, s, "stmkvd_wal_rotations_total"); got != shards {
				t.Fatalf("%d rotations, want one per shard (%d)", got, shards)
			}
			if got := walMetric(t, s, "stmkvd_wal_truncated_segments_total"); got != shards {
				t.Fatalf("%d truncated segments, want one per shard (%d)", got, shards)
			}
		})
	}
}

// TestCheckpointRollKeepsInflightCopy pins the truncation clamp once
// checkpoints roll segments: a cross-shard commit still in flight must keep
// its log copies through a roll and a covering checkpoint, since a peer's
// rescue may need them, and loses them to the first checkpoint after it is
// durable everywhere.
func TestCheckpointRollKeepsInflightCopy(t *testing.T) {
	fsys := walfs.NewMem()
	s, _, err := Open(Config{Shards: 4, Buckets: 64}, DurableConfig{Dir: "wal", FS: fsys, FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)
	a, b := crossPair(t, s)
	val := make([]byte, 200)
	for r := 0; r < 20; r++ {
		s.Set(a, val)
		s.Set(b, val)
	}
	// The logs now hold far more than the snapshots: this checkpoint asks
	// both shards to roll, and the transfer's copies are the next appends.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sb := s.NewSyncBatch()
	if err := s.Run(nil, Req{Keys: [][]byte{a, b}, Sync: sb}, func(tx *Tx) error {
		tx.Set(a, []byte("1"))
		tx.Set(b, []byte("2"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	copies := func() int {
		n := 0
		for _, sid := range []int{s.KeyShard(a), s.KeyShard(b)} {
			sc, err := wal.ScanShard(fsys, wal.ShardDir("wal", sid))
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range sc.Records {
				if rec.Kind == wal.KindXCommit {
					n++
				}
			}
		}
		return n
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := walMetric(t, s, "stmkvd_wal_rotations_total"); got < 2 {
		t.Fatalf("%d rotations; both participants should have rolled after the transfer", got)
	}
	if got := copies(); got != 2 {
		t.Fatalf("in-flight transfer has %d log copies after a covering checkpoint, want 2", got)
	}
	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := copies(); got != 0 {
		t.Fatalf("durable transfer still has %d log copies after a covering checkpoint, want 0", got)
	}
}

// holdFS stalls vectored writes to files under dir while held, freezing one
// shard's appender with records queued.
type holdFS struct {
	walfs.FS
	dir     string
	held    atomic.Bool
	release chan struct{}
}

func (h *holdFS) Create(path string, excl bool) (walfs.File, error) {
	f, err := h.FS.Create(path, excl)
	if err != nil || filepath.Dir(path) != h.dir {
		return f, err
	}
	return &holdFile{File: f, h: h}, nil
}

type holdFile struct {
	walfs.File
	h *holdFS
}

func (f *holdFile) Writev(bufs [][]byte) error {
	if f.h.held.Load() {
		<-f.h.release
	}
	return f.File.Writev(bufs)
}

// TestRescueKeepsPeerPrefix recovers a crash in which one shard's appender
// was stalled with a single-shard transfer queued ahead of its copy of a
// cross-shard transfer that read the same account. Recovery may rescue the
// cross-shard transfer's absolute values from the other shard's copy only if
// that copy cannot outlive the stalled shard's earlier record; otherwise the
// rescue lands on a log missing a debit the values include, and the account
// total comes out one short.
func TestRescueKeepsPeerPrefix(t *testing.T) {
	mem := walfs.NewRecordingMem()
	hold := &holdFS{FS: mem, dir: wal.ShardDir("wal", 1), release: make(chan struct{})}
	s, _, err := Open(Config{Shards: 2, Buckets: 64}, DurableConfig{Dir: "wal", FS: hold, FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	var x, y, z []byte
	for i := 0; x == nil || y == nil || z == nil; i++ {
		k := []byte(fmt.Sprintf("acct-%03d", i))
		switch {
		case s.KeyShard(k) == 0 && x == nil:
			x = k
		case s.KeyShard(k) == 1 && y == nil:
			y = k
		case s.KeyShard(k) == 1 && z == nil:
			z = k
		}
	}
	for _, k := range [][]byte{x, y, z} {
		s.Set(k, []byte("100"))
	}
	move := func(sb *SyncBatch, from, to []byte) {
		t.Helper()
		if err := s.Run(nil, Req{Keys: [][]byte{from, to}, Sync: sb}, func(tx *Tx) error {
			if _, err := tx.Add(from, -1); err != nil {
				return err
			}
			_, err := tx.Add(to, 1)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	hold.held.Store(true)
	sb := s.NewSyncBatch()
	// A single-shard transfer on shard 1, queued behind the stall, then a
	// cross-shard one whose value for y includes its debit. Shard 0's
	// appender runs meanwhile.
	move(sb, y, z)
	move(sb, x, y)
	time.Sleep(20 * time.Millisecond)
	crash := walfs.CrashState(mem.Journal())
	close(hold.release)
	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
	closeStore(t, s)

	s2, _, err := Open(Config{Shards: 2, Buckets: 64}, DurableConfig{Dir: "wal", FS: crash, FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s2)
	var sum int64
	for _, k := range [][]byte{x, y, z} {
		v, ok := s2.Get(k)
		n, err := ParseInt(v)
		if !ok || err != nil {
			t.Fatalf("%s recovered as %q (present %v)", k, v, ok)
		}
		sum += n
	}
	if sum != 300 {
		t.Fatalf("accounts sum to %d after recovery, want 300: a rescued transfer tore", sum)
	}
}

// TestIdleShardSkipsCheckpoint checks that the periodic checkpointer stops
// rewriting snapshots once nothing is appended, and resumes on a new write.
func TestIdleShardSkipsCheckpoint(t *testing.T) {
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: "wal", FS: walfs.NewMem(), FsyncBatch: 1, SnapshotEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)
	for i := 0; i < 64; i++ {
		s.Set([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	snapshots := func() uint64 { return walMetric(t, s, "stmkvd_wal_snapshots_total") }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// Every shard has a snapshot covering everything appended.
	waitFor("every shard to checkpoint", func() bool {
		for sid := 0; sid < s.Shards(); sid++ {
			lsn, ok := s.WAL().LatestSnapshotLSN(sid)
			if !ok || lsn != s.WAL().Log(sid).AppendedLSN() {
				return false
			}
		}
		return true
	})
	// A checkpoint in flight may have renamed its snapshot but not yet
	// counted it; this call queues behind it on the shard locks.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	idle := snapshots()
	time.Sleep(50 * time.Millisecond) // dozens of checkpoint periods
	if got := snapshots(); got != idle {
		t.Fatalf("idle store kept writing snapshots: %d -> %d", idle, got)
	}
	s.Set([]byte("k00"), []byte("w"))
	waitFor("a checkpoint after a new write", func() bool { return snapshots() > idle })
}

func TestDurableSnapshotNewerThanLogTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	for i := 0; i < 50; i++ {
		s.Set([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Len()
	closeStore(t, s)

	// Delete every log segment, leaving only snapshots: the snapshot covers
	// LSNs past the (now empty) log tail, and recovery must come up at the
	// snapshot's LSN rather than replaying from scratch.
	for sid := 0; sid < s.Shards(); sid++ {
		segs, _ := filepath.Glob(filepath.Join(wal.ShardDir(dir, sid), "*.seg"))
		for _, seg := range segs {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}
	}

	s2, stats := openTestStore(t, dir)
	defer closeStore(t, s2)
	if stats.SnapshotPairs == 0 {
		t.Fatalf("no snapshot pairs loaded: %+v", stats)
	}
	if got := s2.Len(); got != want {
		t.Fatalf("snapshot-only recovery: %d keys, want %d", got, want)
	}
	// New writes must land at LSNs past the snapshot, and a second reopen
	// must see them.
	s2.Set([]byte("after"), []byte("reboot"))
	closeStore(t, s2)
	s3, _ := openTestStore(t, dir)
	defer closeStore(t, s3)
	if v, ok := s3.Get([]byte("after")); !ok || string(v) != "reboot" {
		t.Fatalf("post-recovery write lost: %q %v", v, ok)
	}
}

func TestDurableShardCountChangeRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	closeStore(t, s)
	if _, _, err := Open(Config{Shards: 8, Buckets: 64}, testDurableConfig(dir)); err == nil {
		t.Fatal("shard count change accepted")
	}
}

func TestDurableShardLSNMetric(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	defer closeStore(t, s)
	s.Set([]byte("k"), []byte("v"))
	found := false
	for _, m := range s.ObsMetrics() {
		if m.Name == "stmkv_shard_lsn" && m.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("stmkv_shard_lsn gauge missing or zero everywhere")
	}
}

func TestDurablePeriodicCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Shards: 2, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1, SnapshotEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Set([]byte("k"), []byte("v"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		var snaps uint64
		for _, m := range s.WAL().ObsMetrics() {
			if m.Name == "stmkvd_wal_snapshots_total" {
				snaps = m.Value
			}
		}
		if snaps > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpointer wrote no snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closeStore(t, s)
}

// TestDeferredSyncBatch drives writes through the deferred-durability path:
// commits return before their records are durable, Wait makes them so, and
// the deferred cross-shard registrations retire so truncation is not pinned.
func TestDeferredSyncBatch(t *testing.T) {
	dir := t.TempDir()
	// Nothing syncs a log until someone calls Sync, so durability advances
	// only through Wait — the batch just has to be too large to fill. The
	// interval stays small: it bounds how long Wait's group leader lingers.
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1 << 20, FsyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)

	sb := s.NewSyncBatch()
	if sb == nil {
		t.Fatal("NewSyncBatch returned nil on a durable store")
	}
	if sb.Pending() {
		t.Fatal("fresh SyncBatch reports pending")
	}
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("d%04d", i))
		err := s.Run(nil, Req{Keys: [][]byte{key}, Sync: sb}, func(tx *Tx) error {
			tx.Set(key, []byte("v"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := crossPair(t, s)
	err = s.Run(nil, Req{Keys: [][]byte{a, b}, Sync: sb}, func(tx *Tx) error {
		tx.Set(a, []byte("1"))
		tx.Set(b, []byte("2"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sb.Pending() {
		t.Fatal("SyncBatch not pending after deferred commits")
	}
	behind := false
	for i := 0; i < s.Shards(); i++ {
		l := s.WAL().Log(i)
		if l.SyncedLSN() < l.AppendedLSN() {
			behind = true
		}
	}
	if !behind {
		t.Fatal("every record already durable before Wait; deferral did not defer")
	}
	s.wimu.Lock()
	inflight := len(s.winflight)
	s.wimu.Unlock()
	if inflight == 0 {
		t.Fatal("cross-shard deferred commit left no in-flight registration")
	}

	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
	if sb.Pending() {
		t.Fatal("SyncBatch still pending after Wait")
	}
	for i := 0; i < s.Shards(); i++ {
		l := s.WAL().Log(i)
		if l.SyncedLSN() != l.AppendedLSN() {
			t.Fatalf("shard %d: synced %d != appended %d after Wait", i, l.SyncedLSN(), l.AppendedLSN())
		}
	}
	s.wimu.Lock()
	inflight = len(s.winflight)
	s.wimu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d in-flight registrations survive Wait; truncation would be pinned", inflight)
	}
	// A second Wait with nothing noted is a no-op.
	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredSyncNilStore checks the nil-SyncBatch contract: a store
// without a WAL hands out nil, and the Defer entry points still run the
// transaction (callers hold one batch unconditionally).
func TestDeferredSyncNilStore(t *testing.T) {
	s := New(Config{Shards: 2, Buckets: 16})
	sb := s.NewSyncBatch()
	if sb != nil {
		t.Fatal("NewSyncBatch non-nil without a WAL")
	}
	if sb.Pending() {
		t.Fatal("nil SyncBatch pending")
	}
	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
	err := s.Run(nil, Req{Keys: [][]byte{[]byte("k")}, Sync: sb}, func(tx *Tx) error {
		tx.Set([]byte("k"), []byte("v"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("deferred write lost: %q %v", v, ok)
	}
}

// TestCheckpointSyncsLogBeforeSnapshot pins the snapshot durability ordering:
// a checkpoint must make the log durable through every record whose effects
// its scan could have observed *before* the snapshot lands. Otherwise a crash
// after the rename but before the group fsync would recover snapshot state
// (e.g. one shard's half of a cross-shard transfer) backed by no durable
// record anywhere. Deferred commits leave records appended-but-unsynced, so
// the checkpoint itself must close the gap.
func TestCheckpointSyncsLogBeforeSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Nothing syncs until someone calls Sync (batch too large to fill); the
	// small interval only bounds how long a group leader lingers.
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1 << 20, FsyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)

	sb := s.NewSyncBatch()
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("cp%04d", i))
		err := s.Run(nil, Req{Keys: [][]byte{key}, Sync: sb}, func(tx *Tx) error {
			tx.Set(key, []byte("v"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := crossPair(t, s)
	err = s.Run(nil, Req{Keys: [][]byte{a, b}, Sync: sb}, func(tx *Tx) error {
		tx.Set(a, []byte("1"))
		tx.Set(b, []byte("2"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	behind := false
	for i := 0; i < s.Shards(); i++ {
		l := s.WAL().Log(i)
		if l.SyncedLSN() < l.AppendedLSN() {
			behind = true
		}
	}
	if !behind {
		t.Fatal("every record already durable before the checkpoint; nothing to test")
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Quiescent store: the scan observed every published effect, so the log
	// must now be durable through each shard's full appended prefix.
	for i := 0; i < s.Shards(); i++ {
		l := s.WAL().Log(i)
		if l.SyncedLSN() < l.AppendedLSN() {
			t.Fatalf("shard %d: snapshot written with synced %d < appended %d — snapshot may hold non-durable effects",
				i, l.SyncedLSN(), l.AppendedLSN())
		}
	}
	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSyncKeepsInflightPinned pins the wedged-log truncation guard: a
// cross-shard commit whose durability wait fails must keep its in-flight
// registration (and so its minInflightLSN truncation pin) forever — with one
// participant's xcommit copy possibly never durable, a checkpoint on a
// healthy peer must not delete the surviving copy a post-crash rescue needs.
func TestFailedSyncKeepsInflightPinned(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1 forces a rotation on every flush; deleting a shard's log
	// directory then wedges that log at the next Sync (the rotation cannot
	// create the next segment), without disturbing the already-open file.
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}

	sb := s.NewSyncBatch()
	a, b := crossPair(t, s)
	err = s.Run(nil, Req{Keys: [][]byte{a, b}, Sync: sb}, func(tx *Tx) error {
		tx.Set(a, []byte("1"))
		tx.Set(b, []byte("2"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sidA, sidB := s.KeyShard(a), s.KeyShard(b)
	if s.minInflightLSN(sidA) == 0 || s.minInflightLSN(sidB) == 0 {
		t.Fatal("deferred cross-shard commit not registered in-flight")
	}
	// The appender rolls the segment it has just written (SegmentBytes 1)
	// concurrently with this removal, so one pass can find a freshly created
	// segment and fail with "directory not empty"; repeat until it is gone.
	for try := 0; ; try++ {
		err := os.RemoveAll(wal.ShardDir(dir, sidA))
		if err == nil {
			break
		}
		if try == 10 {
			t.Fatal(err)
		}
	}
	if err := sb.Wait(); err == nil {
		t.Fatal("Wait succeeded with shard A's log directory gone")
	}
	// The registration must survive the failed Wait on every participant:
	// shard B's checkpoints stay clamped below the xcommit record.
	if s.minInflightLSN(sidA) == 0 || s.minInflightLSN(sidB) == 0 {
		t.Fatal("failed Wait retired the in-flight registration; a healthy peer could truncate the only durable xcommit copy")
	}
	_ = s.Close() // the wedged log fails the final flush; that is the point
}
