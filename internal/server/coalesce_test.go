package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"memtx/internal/kv"
	"memtx/internal/server"
	"memtx/internal/server/wire"
)

// FuzzCoalescingDifferential feeds one seeded, mixed, pipelined command
// stream to two servers over identically preloaded stores — one coalescing
// with the default window, one with coalescing off — and requires
// byte-identical responses and identical final store contents. The stream
// interleaves read runs, same-shard and cross-shard write runs, and the
// commands that must run alone between them (wrong arity, malformed bodies,
// unknown names, INCR over a non-integer value), optionally ending in a
// framing error. Neither server may recover a panic: a write run that
// crosses a shard boundary trips the store's shard check, which the
// fallback would otherwise hide.
func FuzzCoalescingDifferential(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 77, 1234, 99991} {
		f.Add(seed, uint8(200), seed%2 == 0)
	}
	f.Add(int64(5), uint8(1), false)
	f.Add(int64(6), uint8(17), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, frameErr bool) {
		keys := streamKeys(t)
		stream, nresp := coalesceStream(seed, int(n), keys, frameErr)

		on, onSrv := runDifferentialStream(t, server.Config{}, keys, stream, nresp, frameErr)
		off, offSrv := runDifferentialStream(t, server.Config{MaxBatch: -1}, keys, stream, nresp, frameErr)
		if !bytes.Equal(on.resp, off.resp) {
			t.Fatalf("responses differ\ncoalesced:   %q\nuncoalesced: %q", on.resp, off.resp)
		}
		for i, k := range keys {
			if on.final[i] != off.final[i] {
				t.Fatalf("key %q: coalesced store holds %q, uncoalesced %q", k, on.final[i], off.final[i])
			}
		}
		for _, name := range []string{"stmkvd_panics_recovered_total", "stmkvd_protocol_errors_total"} {
			if a, b := metricValue(t, onSrv, name), metricValue(t, offSrv, name); a != b {
				t.Errorf("%s: coalesced %d, uncoalesced %d", name, a, b)
			}
		}
		if p := metricValue(t, onSrv, "stmkvd_panics_recovered_total"); p != 0 {
			t.Errorf("coalesced server recovered %d panics", p)
		}
		for c := server.Cmd(0); c < server.NumCmds; c++ {
			if a, b := onSrv.CmdCount(c), offSrv.CmdCount(c); a != b {
				t.Errorf("%s count: coalesced %d, uncoalesced %d", c, a, b)
			}
		}
		if w := metricValue(t, offSrv, "stmkvd_write_batches_total") + metricValue(t, offSrv, "stmkvd_read_batches_total"); w != 0 {
			t.Errorf("uncoalesced server formed %d batches", w)
		}
		if n >= 100 && (metricValue(t, onSrv, "stmkvd_read_batches_total") == 0 || metricValue(t, onSrv, "stmkvd_write_batches_total") == 0) {
			t.Errorf("a %d-command stream formed no read or no write run; the comparison would be vacuous", n)
		}
	})
}

// streamKeys returns the stream's key universe on a 4-shard store: four keys
// sharing one shard (so write runs coalesce), three on other shards, and the
// non-integer key last.
func streamKeys(t *testing.T) [][]byte {
	t.Helper()
	s := kv.New(kv.Config{Shards: 4, Buckets: 64})
	keys := sameShardKeys(t, s, 4)
	home := s.KeyShard(keys[0])
	for i := 0; len(keys) < 7; i++ {
		k := []byte(fmt.Sprintf("x-%d", i))
		if s.KeyShard(k) != home {
			keys = append(keys, k)
		}
	}
	return append(keys, []byte("str"))
}

// coalesceStream builds n pipelined request frames from seed and returns
// them with the number of responses they earn.
func coalesceStream(seed int64, n int, keys [][]byte, frameErr bool) ([]byte, int) {
	rng := rand.New(rand.NewSource(seed))
	key := func() []byte {
		if rng.Intn(10) < 7 {
			return keys[rng.Intn(4)] // the shared shard: write runs form
		}
		return keys[rng.Intn(len(keys)-1)]
	}
	num := func() wire.Arg { return wire.Bare(fmt.Sprint(rng.Intn(11) - 5)) }
	var stream []byte
	add := func(name string, args ...wire.Arg) {
		stream = wire.AppendFrame(stream, wire.AppendCommand(nil, name, args...))
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 6:
			add("PING")
		case r < 22:
			add("GET", wire.Blob(key()))
		case r < 30:
			add("MGET", wire.Blob(key()), wire.Blob(key()), wire.Blob(keys[rng.Intn(len(keys))]))
		case r < 45:
			add("SET", wire.Blob(key()), wire.Blob([]byte(fmt.Sprint(rng.Intn(100)))))
		case r < 68:
			add("INCR", wire.Blob(key()), num())
		case r < 72:
			add("INCR", wire.Blob(keys[len(keys)-1]), num()) // non-integer value
		case r < 74:
			add("SET", wire.Blob(key()), wire.Blob([]byte("v"))) // later INCRs on it fail
		case r < 76:
			add("INCR", wire.Blob(key()), wire.Bare("x1")) // unparsable delta
		case r < 80:
			bad := [][]byte{
				wire.AppendCommand(nil, "GET"),
				wire.AppendCommand(nil, "SET", wire.Blob(key())),
				wire.AppendCommand(nil, "INCR", wire.Blob(key())),
				wire.AppendCommand(nil, "PING", wire.Bare("x")),
				wire.AppendCommand(nil, "MGET"),
			}
			stream = wire.AppendFrame(stream, bad[rng.Intn(len(bad))])
		case r < 83:
			stream = wire.AppendFrame(stream, []byte("GET $9:ab")) // malformed body
		case r < 86:
			add("FROB", wire.Blob(key())) // unknown command
		case r < 90:
			add("TRANSFER", wire.Blob(key()), wire.Blob(key()), wire.Bare(fmt.Sprint(rng.Intn(3))))
		case r < 94:
			add("DEL", wire.Blob(key()))
		default:
			add("CAS", wire.Blob(key()), wire.Blob([]byte("1")), wire.Blob([]byte("2")))
		}
	}
	if frameErr {
		stream = append(stream, "x\n"...) // framing lost: ERR, then close
		return stream, n + 1
	}
	return stream, n
}

type streamResult struct {
	resp  []byte   // every response frame, in order
	final []string // the store's final value per key ("" = absent)
}

// runDifferentialStream sends stream in one write to a fresh server over a
// preloaded store and collects nresp response frames; with frameErr the
// connection must close after them. A response is written only after its
// command ran, so the store is final once the last one arrives.
func runDifferentialStream(t *testing.T, cfg server.Config, keys [][]byte, stream []byte, nresp int, frameErr bool) (streamResult, *server.Server) {
	t.Helper()
	store := kv.New(kv.Config{Shards: 4, Buckets: 64})
	for i, k := range keys[:len(keys)-1] {
		store.Set(k, []byte(fmt.Sprint(i)))
	}
	store.Set(keys[len(keys)-1], []byte("abc"))
	srv, ln := startPipeServer(t, store, cfg)
	conn := ln.dial()
	defer conn.Close()

	// One Write delivers the whole stream (it fits the server's input
	// buffer), so the coalescing server sees full windows deterministically.
	wrote := make(chan error, 1)
	go func() {
		_, err := conn.Write(stream)
		wrote <- err
	}()
	var res streamResult
	br := bufio.NewReader(conn)
	for i := 0; i < nresp; i++ {
		body, err := wire.ReadFrame(br, 0)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i, nresp, err)
		}
		res.resp = wire.AppendFrame(res.resp, body)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write stream: %v", err)
	}
	if frameErr {
		if body, err := wire.ReadFrame(br, 0); err == nil {
			t.Fatalf("connection still open after a framing error; got %q", body)
		}
	}
	for _, k := range keys {
		v, _ := store.Get(k)
		res.final = append(res.final, string(v))
	}
	return res, srv
}
