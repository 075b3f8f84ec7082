package server_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"memtx/internal/enginetest"
	"memtx/internal/kv"
	"memtx/internal/kvload"
	"memtx/internal/obs"
	"memtx/internal/server"
	"memtx/internal/server/wire"
)

// startServer runs a server over a fresh store on a loopback listener and
// returns its address plus a cleanup that asserts a clean drain.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	store := kv.New(kv.Config{Shards: 4, Buckets: 64})
	cfg.ErrorLog = log.New(io.Discard, "", 0)
	srv := server.New(store, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != server.ErrServerClosed {
			t.Errorf("Serve returned %v, want server.ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

// metricValue reads one unlabeled series from the server's metric export.
func metricValue(t *testing.T, srv *server.Server, name string) uint64 {
	t.Helper()
	for _, m := range srv.ObsMetrics() {
		if m.Name == name && len(m.Labels) == 0 {
			return m.Value
		}
	}
	t.Fatalf("metric %q not exported", name)
	return 0
}

func dial(t *testing.T, addr string) *kvload.Client {
	t.Helper()
	c, err := kvload.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCommands(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("PING: %v", err)
	}
	if _, ok, err := c.Get([]byte("nope")); err != nil || ok {
		t.Fatalf("GET missing = ok=%v err=%v", ok, err)
	}
	if err := c.Set([]byte("k"), []byte("binary \x00\n value")); err != nil {
		t.Fatalf("SET: %v", err)
	}
	v, ok, err := c.Get([]byte("k"))
	if err != nil || !ok || !bytes.Equal(v, []byte("binary \x00\n value")) {
		t.Fatalf("GET = %q,%v,%v", v, ok, err)
	}
	if swapped, err := c.CAS([]byte("k"), []byte("wrong"), []byte("x")); err != nil || swapped {
		t.Fatalf("CAS wrong = %v,%v", swapped, err)
	}
	if swapped, err := c.CAS([]byte("k"), []byte("binary \x00\n value"), []byte("v2")); err != nil || !swapped {
		t.Fatalf("CAS right = %v,%v", swapped, err)
	}
	if removed, err := c.Del([]byte("k")); err != nil || !removed {
		t.Fatalf("DEL = %v,%v", removed, err)
	}
	if removed, err := c.Del([]byte("k")); err != nil || removed {
		t.Fatalf("DEL again = %v,%v", removed, err)
	}

	if n, err := c.Incr([]byte("ctr"), 5); err != nil || n != 5 {
		t.Fatalf("INCR = %d,%v", n, err)
	}
	if n, err := c.Incr([]byte("ctr"), -8); err != nil || n != -3 {
		t.Fatalf("INCR = %d,%v", n, err)
	}

	if err := c.MSet([]byte("a"), []byte("1"), []byte("b"), []byte("2")); err != nil {
		t.Fatalf("MSET: %v", err)
	}
	vals, err := c.MGet([]byte("a"), []byte("missing"), []byte("b"))
	if err != nil {
		t.Fatalf("MGET: %v", err)
	}
	if !bytes.Equal(vals[0], []byte("1")) || vals[1] != nil || !bytes.Equal(vals[2], []byte("2")) {
		t.Fatalf("MGET = %q", vals)
	}

	// TRANSFER with sufficient and insufficient funds.
	if err := c.Set([]byte("src"), []byte("100")); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Transfer([]byte("src"), []byte("dst"), 60); err != nil || !ok {
		t.Fatalf("TRANSFER = %v,%v", ok, err)
	}
	if ok, err := c.Transfer([]byte("src"), []byte("dst"), 60); err != nil || ok {
		t.Fatalf("TRANSFER overdraw = %v,%v, want refusal", ok, err)
	}
	vals, err = c.MGet([]byte("src"), []byte("dst"))
	if err != nil || string(vals[0]) != "40" || string(vals[1]) != "60" {
		t.Fatalf("post-transfer balances = %q, %v", vals, err)
	}
}

func TestCommandErrors(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr)

	// Errors must leave the connection usable.
	checks := []struct {
		name string
		args []wire.Arg
	}{
		{"NOSUCH", nil},
		{"GET", nil}, // arity
		{"SET", []wire.Arg{wire.Blob([]byte("k"))}},                                               // arity
		{"INCR", []wire.Arg{wire.Blob([]byte("k")), wire.Bare("xyz")}},                            // bad int
		{"TRANSFER", []wire.Arg{wire.Blob([]byte("a")), wire.Blob([]byte("b")), wire.Bare("-1")}}, // negative
		{"MSET", []wire.Arg{wire.Blob([]byte("k"))}},                                              // odd pairs
	}
	for _, chk := range checks {
		if _, err := c.Do(chk.name, chk.args...); err == nil {
			t.Errorf("%s: expected error response", chk.name)
		} else if _, ok := err.(*kvload.RemoteError); !ok {
			t.Errorf("%s: error %v is not a RemoteError", chk.name, err)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after command errors: %v", err)
	}

	// INCR on a non-integer value reports an error without wedging anything.
	if err := c.Set([]byte("junk"), []byte("not-a-number")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Incr([]byte("junk"), 1); err == nil {
		t.Error("INCR on junk value succeeded")
	}

	if srv.CmdCount(server.CmdUnknown) == 0 {
		t.Error("unknown command not counted")
	}
}

// TestMalformedFrame checks that a framing error gets an ERR response and a
// closed connection, and that a well-formed frame with a malformed body
// keeps the connection open.
func TestMalformedFrame(t *testing.T) {
	srv, addr := startServer(t, server.Config{})

	// Malformed body, valid frame: ERR then still usable.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := conn.Write(wire.AppendFrame(nil, []byte("GET  double-space"))); err != nil {
		t.Fatal(err)
	}
	body, err := wire.ReadFrame(br, 0)
	if err != nil || !strings.HasPrefix(string(body), "ERR ") {
		t.Fatalf("malformed body response = %q, %v", body, err)
	}
	if _, err := conn.Write(wire.AppendFrame(nil, []byte("PING"))); err != nil {
		t.Fatal(err)
	}
	if body, err = wire.ReadFrame(br, 0); err != nil || string(body) != "PONG" {
		t.Fatalf("connection dead after body error: %q, %v", body, err)
	}

	// Framing error: ERR then EOF.
	if _, err := conn.Write([]byte("xx not-a-frame\n")); err != nil {
		t.Fatal(err)
	}
	body, err = wire.ReadFrame(br, 0)
	if err != nil || !strings.HasPrefix(string(body), "ERR ") {
		t.Fatalf("framing error response = %q, %v", body, err)
	}
	if _, err := wire.ReadFrame(br, 0); err == nil {
		t.Fatal("connection still alive after framing error")
	}
	if n := metricValue(t, srv, "stmkvd_protocol_errors_total"); n < 2 {
		t.Errorf("protocol errors = %d, want >= 2", n)
	}
}

// TestPipelining sends a burst of frames before reading any responses and
// checks they come back complete and in order.
func TestPipelining(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr)

	const n = 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("p%04d", i))
		if err := c.Send("SET", wire.Blob(k), wire.Blob(k)); err != nil {
			t.Fatal(err)
		}
		if err := c.Send("GET", wire.Blob(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if resp, err := c.Recv(); err != nil || resp.Name != "OK" {
			t.Fatalf("response %d: %+v, %v", 2*i, resp, err)
		}
		resp, err := c.Recv()
		if err != nil || resp.Name != "VAL" {
			t.Fatalf("response %d: %+v, %v", 2*i+1, resp, err)
		}
		want := fmt.Sprintf("p%04d", i)
		if string(resp.Args[0].B) != want {
			t.Fatalf("pipelined responses out of order: got %q, want %q", resp.Args[0].B, want)
		}
	}
}

// TestBackpressure serializes every transaction through MaxInflight=1 and
// checks correctness is unaffected under concurrent clients.
func TestBackpressure(t *testing.T) {
	srv, addr := startServer(t, server.Config{MaxInflight: 1})
	const workers = 8
	const perW = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := kvload.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perW; i++ {
				if _, err := c.Incr([]byte("shared"), 1); err != nil {
					t.Errorf("INCR: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c := dial(t, addr)
	v, ok, err := c.Get([]byte("shared"))
	if err != nil || !ok || string(v) != fmt.Sprint(workers*perW) {
		t.Fatalf("shared counter = %q,%v,%v want %d", v, ok, err, workers*perW)
	}
	if got := srv.CmdCount(server.CmdIncr); got != workers*perW {
		t.Errorf("CmdCount(incr) = %d, want %d", got, workers*perW)
	}
}

// TestGracefulDrain checks that Shutdown lets already-received pipelined
// requests finish and that new connections are refused afterwards.
func TestGracefulDrain(t *testing.T) {
	store := kv.New(kv.Config{Shards: 2, Buckets: 16})
	srv := server.New(store, server.Config{ErrorLog: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := kvload.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A burst of writes, flushed to the server before the drain starts.
	const n = 100
	for i := 0; i < n; i++ {
		if err := c.Send("INCR", wire.Blob([]byte("d")), wire.Bare("1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reading the first response proves the server is inside its read loop
	// with the rest of the burst buffered before the drain starts.
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != server.ErrServerClosed {
		t.Fatalf("Serve = %v, want server.ErrServerClosed", err)
	}

	// Every request the server had received must have been answered.
	got := 1
	for i := 1; i < n; i++ {
		if _, err := c.Recv(); err != nil {
			break
		}
		got++
	}
	v, ok := store.Get([]byte("d"))
	applied := int64(0)
	if ok {
		applied, err = kv.ParseInt(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	if applied != int64(got) {
		t.Errorf("store saw %d increments, client saw %d responses", applied, got)
	}

	if _, err := kvload.Dial(ln.Addr().String()); err == nil {
		t.Error("new connection accepted after Shutdown")
	}
}

// TestTransferInvariant is the atomicity invariant check: N workers issue
// random multi-key transfers over server loopback while the total balance
// must stay conserved. Runs race-clean; -short trims the iteration count.
func TestTransferInvariant(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	const accounts = 32
	const initial = 1000
	workers := 8
	perW := 500
	if testing.Short() {
		workers = 4
		perW = 100
	}

	seedC := dial(t, addr)
	pairs := make([][]byte, 0, 2*accounts)
	for i := 0; i < accounts; i++ {
		pairs = append(pairs, []byte(fmt.Sprintf("acct-%02d", i)), []byte(fmt.Sprint(initial)))
	}
	if err := seedC.MSet(pairs...); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := kvload.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			// Deterministic per-worker xorshift so -race runs reproduce.
			state := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			for i := 0; i < perW; i++ {
				src := int(next() % accounts)
				dst := int(next() % accounts)
				amount := int64(next()%50) + 1
				if _, err := c.Transfer(
					[]byte(fmt.Sprintf("acct-%02d", src)),
					[]byte(fmt.Sprintf("acct-%02d", dst)),
					amount,
				); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Audit over the wire in one atomic MGET snapshot.
	keys := make([][]byte, accounts)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("acct-%02d", i))
	}
	vals, err := seedC.MGet(keys...)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, v := range vals {
		if v == nil {
			t.Fatalf("account %d vanished", i)
		}
		n, err := kv.ParseInt(v)
		if err != nil {
			t.Fatalf("account %d balance %q: %v", i, v, err)
		}
		if n < 0 {
			t.Errorf("account %d overdrawn: %d", i, n)
		}
		total += n
	}
	if total != accounts*initial {
		t.Fatalf("sum = %d, want %d: transfers were not atomic", total, accounts*initial)
	}
	if srv.CmdCount(server.CmdTransfer) != uint64(workers*perW) {
		t.Errorf("CmdCount(transfer) = %d, want %d", srv.CmdCount(server.CmdTransfer), workers*perW)
	}
}

// TestMetricSourceConformance drives the server and checks its metric
// export against the obs source contract.
func TestMetricSourceConformance(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	enginetest.RunMetricSource(t, srv, func() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, err := kvload.Dial(addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for i := 0; i < 100; i++ {
					k := []byte(fmt.Sprintf("m%d-%d", w, i%8))
					if err := c.Set(k, []byte("v")); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := c.Get(k); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
	// The heap gauges attribute memory without a profiler: both must be
	// exported and nonzero in a live process.
	want := map[string]bool{"stmkvd_go_heap_inuse_bytes": false, "stmkvd_go_heap_objects": false}
	for _, m := range srv.ObsMetrics() {
		if _, ok := want[m.Name]; ok {
			if m.Kind != obs.Gauge || m.Value == 0 {
				t.Fatalf("%s = %d (kind %v), want a nonzero gauge", m.Name, m.Value, m.Kind)
			}
			want[m.Name] = true
		}
	}
	for name, ok := range want {
		if !ok {
			t.Fatalf("server exports no %s metric", name)
		}
	}
}
