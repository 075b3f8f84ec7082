package server_test

import (
	"fmt"
	"testing"

	"memtx"
	"memtx/internal/kv"
	"memtx/internal/kvload"
	"memtx/internal/server"
)

// cmdCost is the engine work one command leaves in Store.Stats.
type cmdCost struct {
	Starts, Commits, Aborts, OpenForRead, OpenForUpdate, UndoLogged uint64
}

// TestBarriersPerCommand pins, per engine, the transactions and barriers one
// uncontended command costs on a quiet preloaded store: GET, SET on an
// existing key, INCR, and a cross-shard TRANSFER (the buffered-update
// engines keep no undo log). It is the serving-layer counterpart of E2's
// barrier counts: any extra attempt, open, or undo entry a change to the run
// path introduces shows up here as an exact mismatch.
func TestBarriersPerCommand(t *testing.T) {
	designs := []struct {
		name   string
		design memtx.Design
		want   map[string]cmdCost
	}{
		{"direct", memtx.DirectUpdate, map[string]cmdCost{
			"GET":      {1, 1, 0, 2, 0, 0},
			"SET":      {1, 1, 0, 2, 1, 1},
			"INCR":     {1, 1, 0, 4, 1, 1},
			"TRANSFER": {2, 2, 0, 8, 2, 2},
		}},
		{"wstm", memtx.BufferedWord, map[string]cmdCost{
			"GET":      {1, 1, 0, 2, 0, 0},
			"SET":      {1, 1, 0, 2, 1, 0},
			"INCR":     {1, 1, 0, 4, 1, 0},
			"TRANSFER": {2, 2, 0, 8, 2, 0},
		}},
		{"ostm", memtx.BufferedObject, map[string]cmdCost{
			"GET":      {1, 1, 0, 2, 0, 0},
			"SET":      {1, 1, 0, 2, 1, 0},
			"INCR":     {1, 1, 0, 4, 1, 0},
			"TRANSFER": {2, 2, 0, 8, 2, 0},
		}},
	}
	for _, tc := range designs {
		t.Run(tc.name, func(t *testing.T) {
			store := kv.New(kv.Config{Shards: 4, Buckets: 64, Design: tc.design})
			key, ctr := []byte("k"), []byte("ctr")
			src, dst := []byte("acct-0"), []byte("acct-1")
			for i := 2; store.KeyShard(dst) == store.KeyShard(src); i++ {
				dst = []byte(fmt.Sprintf("acct-%d", i))
			}
			store.Set(key, []byte("hello"))
			store.Set(ctr, []byte("7"))
			store.Set(src, []byte("100"))
			store.Set(dst, []byte("100"))

			_, ln := startPipeServer(t, store, server.Config{})
			c := kvload.NewClient(ln.dial())
			t.Cleanup(func() { c.Close() })

			cmds := []struct {
				name string
				run  func() error
			}{
				{"GET", func() error { _, _, err := c.Get(key); return err }},
				{"SET", func() error { return c.Set(key, []byte("world")) }},
				{"INCR", func() error { _, err := c.Incr(ctr, 1); return err }},
				{"TRANSFER", func() error { _, err := c.Transfer(src, dst, 1); return err }},
			}
			for _, cmd := range cmds {
				before := store.Stats()
				if err := cmd.run(); err != nil {
					t.Fatalf("%s: %v", cmd.name, err)
				}
				d := store.Stats().Sub(before)
				got := cmdCost{d.Starts, d.Commits, d.Aborts, d.OpenForRead, d.OpenForUpdate, d.UndoLogged}
				if want := tc.want[cmd.name]; got != want {
					t.Errorf("%s costs %+v, want %+v", cmd.name, got, want)
				}
			}
		})
	}
}
