package kv

import (
	"errors"
	"fmt"
	"syscall"
	"testing"

	"memtx/internal/enginetest"
	"memtx/internal/obs"
	"memtx/internal/wal/walfs"
)

func openFaultStore(t *testing.T, flt walfs.FS) *Store {
	t.Helper()
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: "wal", FS: flt, FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func trySet(s *Store, key, val string) error {
	return s.AtomicKey([]byte(key), func(t *Tx) error {
		t.Set([]byte(key), []byte(val))
		return nil
	})
}

// TestDiskFullDegradesReadOnly is the ENOSPC drill: when the device fills,
// the first failed write surfaces the raw error (its connection must drop —
// memory and log may have diverged), every later write is refused with the
// typed, retriable ErrDiskFull before any engine commit, reads keep serving,
// and a restart with space available recovers cleanly.
func TestDiskFullDegradesReadOnly(t *testing.T) {
	mem := walfs.NewMem()
	flt := walfs.NewFault(mem)
	s := openFaultStore(t, flt)

	for i := 0; i < 10; i++ {
		if err := trySet(s, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	flt.SetWriteBudget(0)
	// The in-flight casualty: a raw out-of-space error, not the typed
	// refusal — this write may have diverged and must not look retriable.
	err := trySet(s, "casualty", "v")
	if err == nil {
		t.Fatal("write with exhausted budget returned nil")
	}
	if !walfs.IsNoSpace(err) {
		t.Fatalf("first failing write error %v does not unwrap to ENOSPC", err)
	}
	if errors.Is(err, ErrDiskFull) {
		t.Fatalf("first failing write got the typed refusal %v; it must get the raw error", err)
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after WAL ENOSPC")
	}

	// Every shard now refuses writes cleanly, before the engine commits.
	for i := 0; i < 8; i++ {
		err := trySet(s, fmt.Sprintf("post-full-%d", i), "v")
		if !errors.Is(err, ErrDiskFull) {
			t.Fatalf("write %d while degraded: %v, want ErrDiskFull", i, err)
		}
	}
	// Cross-shard writes are refused at the same gate.
	keys := [][]byte{[]byte("k0"), []byte("k1"), []byte("k2")}
	err = s.AtomicKeys(keys, func(tx *Tx) error {
		for _, k := range keys {
			tx.Set(k, []byte("w"))
		}
		return nil
	})
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("cross-shard write while degraded: %v, want ErrDiskFull", err)
	}

	// Reads are unaffected: every acked key still serves, and the refused
	// writes left no trace in memory (the gate runs before the commit).
	for i := 0; i < 10; i++ {
		if v, ok := s.Get([]byte(fmt.Sprintf("k%d", i))); !ok || string(v) != "v" {
			t.Fatalf("read k%d while degraded: (%q, %v)", i, v, ok)
		}
	}
	if _, ok := s.Get([]byte("post-full-0")); ok {
		t.Fatal("a refused write is visible in memory; the health gate must run before the engine commit")
	}

	// Space coming back does not un-wedge a running store: degraded mode is
	// latched until restart (a wedged log cannot be trusted again in-process).
	flt.ClearWriteBudget()
	if err := trySet(s, "still-degraded", "v"); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("write after budget cleared: %v, want ErrDiskFull until restart", err)
	}
	s.Close()

	// Restart with space: recovery replays every acked write and the store
	// accepts new ones.
	s2 := openFaultStore(t, flt)
	defer s2.Close()
	if s2.Degraded() {
		t.Fatal("reopened store still degraded")
	}
	for i := 0; i < 10; i++ {
		if v, ok := s2.Get([]byte(fmt.Sprintf("k%d", i))); !ok || string(v) != "v" {
			t.Fatalf("recovered k%d: (%q, %v)", i, v, ok)
		}
	}
	if err := trySet(s2, "after-restart", "v"); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
}

// TestFsyncFailureQuarantinesShard is the fsyncgate drill at the store level:
// one shard's fsync fails with EIO (pages dropped), that shard alone is
// quarantined — its writes refused with ErrWALQuarantined — while other
// shards keep accepting writes and the whole store keeps serving reads.
func TestFsyncFailureQuarantinesShard(t *testing.T) {
	mem := walfs.NewMem()
	flt := walfs.NewFault(mem)
	s := openFaultStore(t, flt)
	defer s.Close()

	if err := trySet(s, "pre", "v"); err != nil {
		t.Fatal(err)
	}

	flt.FailNextSync("shard-", syscall.EIO, true)
	err := trySet(s, "victim", "v")
	if err == nil {
		t.Fatal("write through failing fsync returned nil")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("first failing write error %v does not unwrap to EIO", err)
	}
	if s.Degraded() {
		t.Fatal("EIO must quarantine one shard, not latch store-wide degraded mode")
	}

	wedged := -1
	for i := 0; i < s.Shards(); i++ {
		if s.WAL().Log(i).Wedged() {
			if wedged >= 0 {
				t.Fatalf("shards %d and %d both wedged; want exactly one", wedged, i)
			}
			wedged = i
		}
	}
	if wedged < 0 {
		t.Fatal("no shard wedged after fsync failure")
	}

	// Probe keys across shards: writes landing on the wedged shard get the
	// typed refusal, the rest succeed.
	quarantined, healthy := 0, 0
	for i := 0; i < 64; i++ {
		err := trySet(s, fmt.Sprintf("probe-%d", i), "v")
		switch {
		case err == nil:
			healthy++
		case errors.Is(err, ErrWALQuarantined):
			quarantined++
		default:
			t.Fatalf("probe %d: unexpected error %v", i, err)
		}
	}
	if quarantined == 0 || healthy == 0 {
		t.Fatalf("probes: %d refused, %d accepted; want both behaviors (one wedged shard of %d)",
			quarantined, healthy, s.Shards())
	}

	// The failure is visible in the WAL metrics: exactly one shard reports
	// cause=eio.
	eio := 0
	for _, m := range s.WAL().ObsMetrics() {
		if m.Name != "stmkvd_wal_failed" {
			continue
		}
		cause := ""
		for _, l := range m.Labels {
			if l.Key == "cause" {
				cause = l.Value
			}
		}
		if cause == "eio" && m.Value != 0 {
			eio++
		}
	}
	if eio != 1 {
		t.Fatalf("stmkvd_wal_failed{cause=eio} set on %d shards, want 1", eio)
	}

	// Reads still serve everywhere.
	if v, ok := s.Get([]byte("pre")); !ok || string(v) != "v" {
		t.Fatalf("read pre: (%q, %v)", v, ok)
	}
}

// TestDurableMetricSourceConformance runs the obs conformance suite against a
// durable store (and its WAL manager) while the workload crosses checkpoint,
// scrub, quarantine, and degraded-mode transitions — the series set must stay
// stable through all of them.
func TestDurableMetricSourceConformance(t *testing.T) {
	mem := walfs.NewMem()
	flt := walfs.NewFault(mem)
	s := openFaultStore(t, flt)
	defer s.Close()

	drive := func() {
		for i := 0; i < 64; i++ {
			trySet(s, fmt.Sprintf("k%d", i%16), "v")
		}
		s.Checkpoint()
		s.WAL().ScrubOnce()
		flt.FailNextSync("shard-", syscall.EIO, true)
		trySet(s, "eio-casualty", "v")
		flt.SetWriteBudget(0)
		trySet(s, "enospc-casualty", "v") // flips degraded_mode mid-run
		for i := 0; i < 16; i++ {
			trySet(s, fmt.Sprintf("refused-%d", i), "v")
		}
	}
	t.Run("store", func(t *testing.T) {
		mem := walfs.NewMem()
		flt2 := walfs.NewFault(mem)
		s2 := openFaultStore(t, flt2)
		defer s2.Close()
		enginetest.RunMetricSource(t, s2, func() {
			for i := 0; i < 64; i++ {
				trySet(s2, fmt.Sprintf("k%d", i%16), "v")
			}
			s2.Checkpoint()
			flt2.SetWriteBudget(0)
			trySet(s2, "casualty", "v")
			for i := 0; i < 16; i++ {
				trySet(s2, fmt.Sprintf("refused-%d", i), "v")
			}
		})
		var src obs.MetricSource = s2
		found := false
		for _, m := range src.ObsMetrics() {
			if m.Name == "stmkvd_degraded_mode" {
				found = true
				if m.Value != 1 {
					t.Fatalf("stmkvd_degraded_mode = %d after ENOSPC, want 1", m.Value)
				}
			}
		}
		if !found {
			t.Fatal("durable store exports no stmkvd_degraded_mode gauge")
		}
	})
	t.Run("wal-manager", func(t *testing.T) {
		enginetest.RunMetricSource(t, s.WAL(), drive)
		want := map[string]bool{
			"stmkvd_wal_scrub_passes_total":     false,
			"stmkvd_wal_scrub_segments_total":   false,
			"stmkvd_wal_quarantined":            false,
			"stmkvd_wal_rescued_segments_total": false,
			"stmkvd_wal_failed":                 false,
			"stmkvd_wal_log_bytes":              false,
		}
		for _, m := range s.WAL().ObsMetrics() {
			if _, ok := want[m.Name]; ok {
				want[m.Name] = true
			}
			if m.Name == "stmkvd_wal_log_bytes" && m.Value == 0 {
				t.Fatal("stmkvd_wal_log_bytes is 0 with records in the live segments")
			}
		}
		for name, ok := range want {
			if !ok {
				t.Fatalf("wal manager exports no %s metric", name)
			}
		}
	})
}
