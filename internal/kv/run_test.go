package kv

import (
	"context"
	"errors"
	"testing"
	"time"

	"memtx"
	"memtx/internal/chaos"
	"memtx/internal/engine"
)

// forceAborts makes every OpenForUpdate abort its attempt until the test
// ends, so a write transaction can never commit.
func forceAborts(t *testing.T) {
	cfg := chaos.Config{Seed: 1}
	cfg.Points[chaos.OpenForUpdate] = chaos.PointConfig{AbortPPM: 1_000_000}
	chaos.Enable(chaos.New(cfg))
	t.Cleanup(chaos.Disable)
}

// TestRunBounds drives Store.Run's bounded retry loop on every engine, on an
// in-memory and a durable store, for a single-shard and a cross-shard key
// set. Each bound gives up with an *engine.TimeoutError naming it and
// unwrapping to its cause, and leaves the store unchanged; a deferred-sync
// write that gives up logs nothing, and the same request commits and syncs
// once the aborts stop. A panic escaping a cross-shard write body leaves
// every shard gate free.
func TestRunBounds(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name  string
		ctx   context.Context
		opts  memtx.TxOptions
		sync  bool
		op    string
		cause error
	}{
		{"max-attempts", nil, memtx.TxOptions{MaxAttempts: 3}, false, "max-attempts", engine.ErrRetryBudget},
		{"max-elapsed", nil, memtx.TxOptions{MaxElapsed: 5 * time.Millisecond}, false, "max-elapsed", engine.ErrRetryBudget},
		{"canceled", canceled, memtx.TxOptions{}, false, "canceled", context.Canceled},
		{"sync/max-elapsed", nil, memtx.TxOptions{MaxElapsed: 5 * time.Millisecond}, true, "max-elapsed", engine.ErrRetryBudget},
	}
	for _, d := range []memtx.Design{memtx.DirectUpdate, memtx.BufferedWord, memtx.BufferedObject} {
		for _, durable := range []bool{false, true} {
			name := d.String() + "/memory"
			cfg := Config{Shards: 4, Buckets: 8, Design: d}
			s := New(cfg)
			if durable {
				name = d.String() + "/wal"
				var err error
				if s, _, err = Open(cfg, DurableConfig{Dir: t.TempDir()}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { closeStore(t, s) })
			}
			a, b := crossPair(t, s)
			for _, keys := range []struct {
				name string
				keys [][]byte
			}{{"single", [][]byte{a}}, {"cross", [][]byte{a, b}}} {
				for _, tc := range cases {
					t.Run(name+"/"+keys.name+"/"+tc.name, func(t *testing.T) {
						req := Req{Keys: keys.keys, Opts: tc.opts}
						if tc.sync {
							req.Sync = s.NewSyncBatch()
						}
						runs := 0
						body := func(tx *Tx) error {
							runs++
							for _, k := range keys.keys {
								tx.Set(k, []byte("x"))
							}
							return nil
						}
						forceAborts(t)
						err := s.Run(tc.ctx, req, body)
						chaos.Disable()

						var te *engine.TimeoutError
						if !errors.As(err, &te) {
							t.Fatalf("err = %v, want *engine.TimeoutError", err)
						}
						if te.Op != tc.op || !errors.Is(err, tc.cause) {
							t.Fatalf("op=%q unwrap=%v, want %q/%v", te.Op, errors.Unwrap(te), tc.op, tc.cause)
						}
						if te.Attempts != runs {
							t.Fatalf("TimeoutError counts %d attempts, body ran %d times", te.Attempts, runs)
						}
						if want := tc.opts.MaxAttempts; want > 0 && runs != want {
							t.Fatalf("body ran %d times, want MaxAttempts = %d", runs, want)
						}
						if tc.ctx == canceled && runs != 0 {
							t.Fatalf("body ran %d times under a canceled context", runs)
						}
						if req.Sync.Pending() {
							t.Fatal("a write that gave up left a deferred sync pending")
						}
						for _, k := range keys.keys {
							if _, ok := s.Get(k); ok {
								t.Fatalf("a write that gave up published %q", k)
							}
						}
						if !tc.sync {
							return
						}
						req.Opts.MaxElapsed = 10 * time.Second
						if err := s.Run(nil, req, body); err != nil {
							t.Fatalf("Run without aborts: %v", err)
						}
						if err := req.Sync.Wait(); err != nil {
							t.Fatalf("deferred sync: %v", err)
						}
						for _, k := range keys.keys {
							if v, ok := s.Get(k); !ok || string(v) != "x" {
								t.Fatalf("%q = %q %v after the synced commit, want x", k, v, ok)
							}
						}
						if err := s.AtomicKeys(keys.keys, func(tx *Tx) error {
							for _, k := range keys.keys {
								tx.Delete(k)
							}
							return nil
						}); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
			t.Run(name+"/cross/panic", func(t *testing.T) {
				func() {
					defer func() {
						if r := recover(); r != "boom" {
							t.Fatalf("recovered %v, want the body's panic", r)
						}
					}()
					_ = s.Run(nil, Req{Keys: [][]byte{a, b}, Opts: memtx.TxOptions{MaxElapsed: time.Second}}, func(tx *Tx) error {
						tx.Set(a, []byte("1"))
						panic("boom")
					})
				}()
				done := make(chan error, 1)
				go func() {
					done <- s.Atomic(func(tx *Tx) error {
						tx.Set(b, []byte("2"))
						return nil
					})
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("store-wide Atomic blocked: the panicking Run leaked a shard gate")
				}
				if _, ok := s.Get(a); ok {
					t.Fatal("the panicking body's write was published")
				}
			})
		}
	}
}
