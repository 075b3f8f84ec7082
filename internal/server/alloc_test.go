package server_test

import (
	"io"
	"runtime/debug"
	"testing"

	"memtx/internal/kv"
	"memtx/internal/race"
	"memtx/internal/server"
	"memtx/internal/server/wire"
)

// disableGC turns the collector off so sync.Pool eviction cannot perturb the
// per-run counts, and skips under the race detector, whose shadow bookkeeping
// shows up in AllocsPerRun.
func disableGC(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestDispatchAllocs pins the server's end-to-end dispatch allocation budget
// over an in-memory connection. AllocsPerRun counts process-wide, so the
// client side of each round trip is itself allocation-free: prebuilt request
// frames, fixed-size response reads. The headline guarantee is the GET
// response path — frame read, parse, snapshot transaction, and response
// assembly — at zero allocations per op once the connection's scratch is
// warm; the write paths get bounded budgets rather than zero because value
// records are allocated by design. The write budgets are the counts measured
// under Go 1.24 (SET 2, INCR 4) plus one for older toolchains.
func TestDispatchAllocs(t *testing.T) {
	disableGC(t)
	store := kv.New(kv.Config{Shards: 4, Buckets: 64})
	store.Set([]byte("k"), []byte("hello"))
	store.Set([]byte("ctr"), []byte("7"))
	_, ln := startPipeServer(t, store, server.Config{})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	// roundTrip sends one prebuilt request frame and reads the exact-size
	// response; responses here are chosen to have a fixed length.
	roundTrip := func(req []byte, wantResp string) func() {
		resp := make([]byte, len(wantResp))
		return func() {
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, resp); err != nil {
				t.Fatal(err)
			}
			if string(resp) != wantResp {
				t.Fatalf("response = %q, want %q", resp, wantResp)
			}
		}
	}

	get := roundTrip(wire.AppendFrame(nil, []byte("GET $1:k")), "12 VAL $5:hello\n")
	getMiss := roundTrip(wire.AppendFrame(nil, []byte("GET $4:none")), "3 NIL\n")
	set := roundTrip(wire.AppendFrame(nil, []byte("SET $1:k $5:hello")), "2 OK\n")
	incr := roundTrip(wire.AppendFrame(nil, []byte("INCR $3:ctr 0")), "2 :7\n")

	get() // warm the connection scratch and the pooled transaction
	if avg := testing.AllocsPerRun(200, get); avg != 0 {
		t.Errorf("GET response path allocates %.2f allocs/op, want 0", avg)
	}
	getMiss()
	if avg := testing.AllocsPerRun(200, getMiss); avg != 0 {
		t.Errorf("GET-miss response path allocates %.2f allocs/op, want 0", avg)
	}
	set()
	if avg := testing.AllocsPerRun(200, set); avg > 3 {
		t.Errorf("SET path allocates %.2f allocs/op, want <= 3", avg)
	}
	incr()
	if avg := testing.AllocsPerRun(200, incr); avg > 5 {
		t.Errorf("INCR path allocates %.2f allocs/op, want <= 5", avg)
	}
}

// TestDurableSetAllocs pins the durable SET budget end to end: frame read,
// parse, transaction, pooled WAL record encode, pipeline enqueue, and the
// group-commit durability wait before the ACK. The WAL layer itself must not
// add unpooled per-commit allocations on top of the in-memory SET path — the
// record buffer, effect capture, and sync scratch all come from pools. The
// budget is the count measured under Go 1.24 (2) plus one for older
// toolchains.
func TestDurableSetAllocs(t *testing.T) {
	disableGC(t)
	store, _, err := kv.Open(kv.Config{Shards: 4, Buckets: 64},
		kv.DurableConfig{Dir: t.TempDir(), FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	_, ln := startPipeServer(t, store, server.Config{})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	req := wire.AppendFrame(nil, []byte("SET $1:k $5:hello"))
	resp := make([]byte, len("2 OK\n"))
	set := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
		if string(resp) != "2 OK\n" {
			t.Fatalf("response = %q", resp)
		}
	}
	set() // warm connection scratch, pooled transaction, and WAL pools
	if avg := testing.AllocsPerRun(200, set); avg > 3 {
		t.Errorf("durable SET path allocates %.2f allocs/op, want <= 3", avg)
	}
}
