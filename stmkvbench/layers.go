package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"memtx"
	"memtx/internal/engine"
	"memtx/internal/kv"
	"memtx/internal/kvload"
	"memtx/internal/server/wire"
	"memtx/internal/wal"
	"memtx/internal/wal/walfs"
)

// replayN is how many requests each single-thread layer replay runs.
const replayN = 40_000

// spanRequests bounds the requests per log whose spans are recorded and
// written; self times are computed over all of them.
const spanRequests = 5_000

// layerMetrics are the per-layer metrics, in the order they are printed.
// Every traced run reports all of them; a figure a workload cannot produce
// (no INCR in read-mostly, no live WAL in memory) reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"wire.parse_ns", "ns"}, {"wire.encode_ns", "ns"}, {"wire.allocs_per_cmd", "count"},
	{"server.ping_rtt_us", "us"}, {"server.txns_per_cmd", "count"},
	{"server.read_batch_size", "count"}, {"server.read_fallback_frac", "ratio"},
	{"server.write_batch_size", "count"}, {"server.write_fallback_frac", "ratio"},
	{"server.shed_frac", "ratio"},
	{"kv.get_ns", "ns"}, {"kv.set_ns", "ns"}, {"kv.incr_ns", "ns"}, {"kv.transfer_ns", "ns"},
	{"kv.allocs_per_cmd", "count"},
	{"kv.get_ns.wstm", "ns"}, {"kv.set_ns.wstm", "ns"}, {"kv.incr_ns.wstm", "ns"}, {"kv.transfer_ns.wstm", "ns"},
	{"kv.get_ns.ostm", "ns"}, {"kv.set_ns.ostm", "ns"}, {"kv.incr_ns.ostm", "ns"}, {"kv.transfer_ns.ostm", "ns"},
	{"kv.cross_retries_per_transfer", "count"},
	{"engine.open_read_per_cmd", "count"}, {"engine.readlog_per_cmd", "count"},
	{"engine.filter_hits_per_cmd", "count"}, {"engine.open_update_per_cmd", "count"},
	{"engine.undo_per_cmd", "count"}, {"engine.commit_frac", "ratio"},
	{"engine.aborts_per_commit.validation", "count"}, {"engine.aborts_per_commit.ownership", "count"},
	{"engine.aborts_per_commit.cm-kill", "count"}, {"engine.aborts_per_commit.doomed", "count"},
	{"engine.aborts_per_commit.explicit", "count"}, {"engine.aborts_per_commit.deadline", "count"},
	{"engine.cm_waits_per_commit", "count"}, {"engine.live_aborts_per_commit", "count"},
	{"wal.encode_ns", "ns"}, {"wal.append_ns", "ns"}, {"wal.append_ns.memfs", "ns"},
	{"wal.fsync_us", "us"}, {"wal.fsync_p99_us", "us"}, {"wal.sync_wait_us", "us"},
	{"wal.records_per_fsync", "count"}, {"wal.records_per_writev", "count"},
	{"wal.records_per_cmd", "count"}, {"wal.bytes_per_record", "bytes"},
	{"wal.write_amp", "ratio"}, {"wal.checkpoint_ms", "ms"}, {"wal.replay_records_per_s", "1/s"},
	{"wal.live_appends_per_cmd", "count"},
	{"gen.late_p99_us", "us"}, {"gen.cpu_us_per_op", "us"},
	{"trace.overhead_p50_us", "us"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced run: a live phase against stmkvd with spans and
// /metrics deltas, then single-thread replays of the workload's request
// stream through each layer's public functions in this process.
func (b *bench) runTraced() (*result, error) {
	w := b.w
	ms := map[string]metric{}
	for _, m := range layerMetrics {
		ms[m.name] = metric{0, m.unit}
	}
	put := func(name string, v float64) {
		m, ok := ms[name]
		if !ok {
			panic("unlisted layer metric " + name)
		}
		m.Value = v
		ms[name] = m
	}
	b.note("stmkvbench %s seed %d: traced run", w.name, b.seed)
	if _, err := b.setup(true); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rtt, err := pingRTT(b.d.addr, 2000)
	if err != nil {
		return nil, err
	}
	put("server.ping_rtt_us", rtt)

	// The live phase runs twice at the high rate, untraced then traced;
	// the p50 difference is the tracing overhead.
	secs := 0.15 * b.seconds
	cpu0 := selfCPU()
	plain, err := b.phase("high (untraced)", w.highRate, secs)
	if err != nil {
		return nil, err
	}
	cpu1 := selfCPU()
	b.attempted += plain.attempted
	b.failed += plain.failed
	b.record("high_untraced", b.summary("high", plain))
	put("gen.late_p99_us", plain.lateP99us)
	put("gen.cpu_us_per_op", float64(cpu1-cpu0)/1e3/float64(max(plain.attempted-plain.failed, 1)))

	before, err := scrape(b.d.metrics)
	if err != nil {
		return nil, err
	}
	var after map[string]float64
	traced, err := b.phaseTraced("high (traced)", w.highRate, secs, true, func() (err error) {
		after, err = scrape(b.d.metrics)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.attempted += traced.attempted
	b.failed += traced.failed
	b.record("high_traced", b.summary("high traced", traced))
	put("trace.overhead_p50_us", traced.p50us-plain.p50us)
	b.liveCounters(put, before, after, traced)
	logs := []*spanLog{}
	for _, cr := range traced.runs {
		logs = append(logs, cr.spans)
	}
	b.teardown()

	// In-process replays: the server is gone, so nothing else competes.
	replayLog, err := b.replayLayers(put)
	if err != nil {
		return nil, err
	}
	logs = append(logs, replayLog)
	if err := b.concurrentAborts(put); err != nil {
		return nil, err
	}
	if err := b.walLayer(put); err != nil {
		return nil, err
	}
	if err := b.reportSpans(logs); err != nil {
		return nil, err
	}
	if err := b.t.err(); err != nil {
		return nil, err
	}

	b.note("per-layer metrics (%s):", w.name)
	for _, m := range layerMetrics {
		b.note("  %-36s %14s %s", m.name, fmtFloat(ms[m.name].Value), m.unit)
	}
	return &result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: ms}, nil
}

// pingRTT is the median round trip of n sequential PINGs on one idle
// connection, in microseconds: the wire and dispatch floor with no kv work.
func pingRTT(addr string, n int) (float64, error) {
	c, err := kvload.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	rtts := make([]float64, n)
	for i := range rtts {
		t0 := time.Now()
		if err := c.Ping(); err != nil {
			return 0, err
		}
		rtts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return medianFloat(rtts), nil
}

// scrape reads a Prometheus text page into name{labels} -> value, plus each
// bare name -> the sum over its label sets.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		full := line[:sp]
		out[full] = v
		if i := strings.IndexByte(full, '{'); i >= 0 {
			out[full[:i]] += v
		}
	}
	return out, sc.Err()
}

// liveCounters turns /metrics deltas over the traced phase into the server,
// kv and wal figures that only a live server shows.
func (b *bench) liveCounters(put func(string, float64), before, after map[string]float64, res *phaseResult) {
	d := func(name string) float64 { return after[name] - before[name] }
	cmds := d("stmkvd_commands_total")
	put("server.txns_per_cmd", ratio(d("stmkv_tx_commits_total"), cmds))
	put("server.read_batch_size", ratio(d("stmkvd_read_batched_commands_total"), d("stmkvd_read_batches_total")))
	put("server.read_fallback_frac", ratio(d("stmkvd_read_batch_fallbacks_total"), d("stmkvd_read_batches_total")))
	put("server.write_batch_size", ratio(d("stmkvd_write_batched_commands_total"), d("stmkvd_write_batches_total")))
	put("server.write_fallback_frac", ratio(d("stmkvd_write_batch_fallbacks_total"), d("stmkvd_write_batches_total")))
	put("server.shed_frac", ratio(d("stmkvd_shed_total"), cmds))
	put("kv.cross_retries_per_transfer", ratio(d("stmkv_cross_retries_total"), d(`stmkvd_commands_total{cmd="transfer"}`)))
	put("engine.live_aborts_per_commit", ratio(d("stmkv_tx_aborts_total"), d("stmkv_tx_commits_total")))
	put("wal.live_appends_per_cmd", ratio(d("stmkvd_wal_appends_total"), cmds))
	put("wal.records_per_fsync", ratio(d("stmkvd_wal_group_records_total"), d("stmkvd_wal_fsyncs_total")))
	put("wal.records_per_writev", ratio(d("stmkvd_wal_writev_records_total"), d("stmkvd_wal_writev_total")))
	put("wal.checkpoint_ms", ratio(d("stmkvd_wal_snapshot_duration_ns_total"), d("stmkvd_wal_snapshots_total"))/1e6)
	var user float64
	for _, cr := range res.runs {
		for _, r := range cr.reqs {
			user += float64(b.userBytes(&r))
		}
	}
	put("wal.write_amp", ratio(d("stmkvd_wal_append_bytes_total")+d("stmkvd_wal_snapshot_bytes_total"), user))
	b.record("live_counters", map[string]float64{
		"commands": cmds, "wal_appends": d("stmkvd_wal_appends_total"),
		"wal_snapshots": d("stmkvd_wal_snapshots_total"), "tx_aborts": d("stmkv_tx_aborts_total"),
		"tx_commits": d("stmkv_tx_commits_total"), "user_bytes_written": user,
	})
	b.note("  live: %.0f commands, %.0f WAL appends, %.0f checkpoints, %.0f aborts / %.0f commits",
		cmds, d("stmkvd_wal_appends_total"), d("stmkvd_wal_snapshots_total"),
		d("stmkv_tx_aborts_total"), d("stmkv_tx_commits_total"))
}

// userBytes is the key and value bytes a write request asks to store.
func (b *bench) userBytes(r *request) int {
	switch r.kind {
	case opSet:
		return len(b.t.keys[r.key]) + b.w.valueSize
	case opIncr:
		return len(b.t.ctrs[r.key]) + len(strconv.FormatInt(r.arg, 10))
	case opTransfer:
		return len(b.t.accts[r.key]) + len(b.t.accts[r.key2]) + 14
	}
	return 0
}

// newStore builds an in-memory store shaped like stmkvd's default and
// preloads it like the live run.
func (b *bench) newStore(d memtx.Design) *kv.Store {
	s := kv.New(kv.Config{Shards: 16, Buckets: 1024, Design: d})
	b.preloadStore(s)
	return s
}

func (b *bench) preloadStore(s *kv.Store) {
	var val []byte
	for i, k := range b.t.keys {
		val = appendValue(val[:0], b.w.valueSize, i, 0)
		s.Set(k, val)
	}
	for _, k := range b.t.ctrs {
		s.Set(k, []byte("0"))
	}
	for _, k := range b.t.accts {
		s.Set(k, kv.FormatInt(initialBalance))
	}
}

// replayStream generates n requests of the workload on one connection.
func (b *bench) replayStream(n int) []request {
	m := newModel(b.w, 1, b.seed)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = m.next(i)
	}
	return reqs
}

// execKV runs one request against the store the way stmkvd's dispatcher
// does.
func (b *bench) execKV(s *kv.Store, r *request, keys [][]byte) error {
	switch r.kind {
	case opGet:
		k := b.t.keys[r.key]
		return s.ViewKey(k, func(t *kv.Tx) error {
			if _, ok := t.Get(k); !ok {
				return fmt.Errorf("replay: key %s missing", k)
			}
			return nil
		})
	case opSet:
		k := b.t.keys[r.key]
		var vb [512]byte
		v := appendValue(vb[:0], b.w.valueSize, int(r.key), r.arg)
		return s.AtomicKey(k, func(t *kv.Tx) error {
			t.Set(k, v)
			return nil
		})
	case opIncr:
		k := b.t.ctrs[r.key]
		return s.AtomicKey(k, func(t *kv.Tx) error {
			_, err := t.Add(k, 1)
			return err
		})
	case opTransfer:
		src, dst := b.t.accts[r.key], b.t.accts[r.key2]
		keys[0], keys[1] = src, dst
		return s.AtomicKeys(keys[:2], func(t *kv.Tx) error {
			a, err := t.Int(src)
			if err != nil {
				return err
			}
			c, err := t.Int(dst)
			if err != nil {
				return err
			}
			t.SetInt(src, a-1)
			t.SetInt(dst, c+1)
			return nil
		})
	}
	return nil
}

// answerBody is the answer stmkvd encodes for r.
func (b *bench) answerBody(dst []byte, r *request, val []byte) []byte {
	switch r.kind {
	case opGet:
		return wire.AppendCommand(dst, "VAL", wire.Blob(val))
	case opSet:
		return append(dst, "OK"...)
	case opIncr:
		return strconv.AppendInt(append(dst, ':'), r.arg, 10)
	}
	return append(dst, ":1"...)
}

func mallocs() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs
}

func shardStats(s *kv.Store) engine.Stats {
	var st engine.Stats
	for i := 0; i < s.Shards(); i++ {
		st = st.Add(s.ShardStats(i))
	}
	return st
}

// replayLayers replays the workload's stream single-threaded through the
// wire codec and the kv store of each engine. Counts come from the first
// pass over a fresh store, so they repeat exactly for a seed; times are the
// median over three passes of the mean per call.
func (b *bench) replayLayers(put func(string, float64)) (*spanLog, error) {
	reqs := b.replayStream(3 * replayN)
	// Request bodies as the server's frame reader hands them to the parser.
	bodies := make([][]byte, len(reqs))
	var scratch []byte
	for i := range reqs {
		frame := b.t.appendRequest(nil, &scratch, &reqs[i])
		bodies[i] = frame[bytes.IndexByte(frame, ' ')+1 : len(frame)-1]
	}
	vals := make([][]byte, len(reqs))
	for i := range reqs {
		if reqs[i].kind == opGet {
			vals[i] = appendValue(nil, b.w.valueSize, int(reqs[i].key), reqs[i].arg)
		}
	}

	// wire: parse each request frame, encode each answer frame.
	var cmd wire.Command
	var out, body []byte
	wireAllocs := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_ = wire.ParseCommandInto(bodies[i], &cmd)
			body = b.answerBody(body[:0], &reqs[i], vals[i])
			out = wire.AppendFrame(out[:0], body)
		}
	}
	wireAllocs(0, 1000) // warm the reused buffers
	m0 := mallocs()
	wireAllocs(0, replayN)
	put("wire.allocs_per_cmd", float64(mallocs()-m0)/replayN)

	var keys [2][]byte
	logs := newSpanLog("single-thread replay (direct engine): ns from replay start", 1<<50)
	for _, d := range []memtx.Design{memtx.DirectUpdate, memtx.BufferedWord, memtx.BufferedObject} {
		s := b.newStore(d)
		suffix := ""
		if d != memtx.DirectUpdate {
			suffix = "." + d.String()
		}
		if d == memtx.DirectUpdate {
			st0, m0 := shardStats(s), mallocs()
			for i := 0; i < replayN; i++ {
				if err := b.execKV(s, &reqs[i], keys[:]); err != nil {
					return nil, err
				}
			}
			allocs := float64(mallocs()-m0) / replayN
			st := shardStats(s).Sub(st0)
			n := float64(replayN)
			put("kv.allocs_per_cmd", allocs)
			put("engine.open_read_per_cmd", float64(st.OpenForRead)/n)
			put("engine.readlog_per_cmd", float64(st.ReadLogEntries)/n)
			put("engine.filter_hits_per_cmd", float64(st.FilterHits)/n)
			put("engine.open_update_per_cmd", float64(st.OpenForUpdate)/n)
			put("engine.undo_per_cmd", float64(st.UndoLogged)/n)
			b.record("replay_counts", map[string]uint64{"cmds": replayN, "open_read": st.OpenForRead,
				"open_update": st.OpenForUpdate, "undo": st.UndoLogged, "readlog": st.ReadLogEntries,
				"filter_hits": st.FilterHits, "starts": st.Starts, "commits": st.Commits})
		}
		// Timed passes: the same stream continues on the same store.
		var sum [numOps][]float64
		var parseNs, encodeNs []float64
		origin := time.Now()
		for pass := 0; pass < 3; pass++ {
			lo := replayN * pass
			var tot [numOps]time.Duration
			var cnt [numOps]int
			var tParse, tEncode time.Duration
			for i := lo; i < lo+replayN && i < len(reqs); i++ {
				r := &reqs[i]
				t0 := time.Now()
				_ = wire.ParseCommandInto(bodies[i], &cmd)
				t1 := time.Now()
				if err := b.execKV(s, r, keys[:]); err != nil {
					return nil, err
				}
				t2 := time.Now()
				body = b.answerBody(body[:0], r, vals[i])
				out = wire.AppendFrame(out[:0], body)
				t3 := time.Now()
				tParse += t1.Sub(t0)
				tot[r.kind] += t2.Sub(t1)
				cnt[r.kind]++
				tEncode += t3.Sub(t2)
				if d == memtx.DirectUpdate && pass == 0 && i < spanRequests {
					at := func(t time.Time) int64 { return int64(t.Sub(origin)) }
					id := logs.add(0, "request."+opNames[r.kind], at(t0), at(t3))
					logs.add(id, "wire.parse", at(t0), at(t1))
					logs.add(id, "kv."+opNames[r.kind], at(t1), at(t2))
					logs.add(id, "wire.encode", at(t2), at(t3))
				}
			}
			for k := opKind(0); k < numOps; k++ {
				if cnt[k] > 0 {
					sum[k] = append(sum[k], float64(tot[k].Nanoseconds())/float64(cnt[k]))
				}
			}
			parseNs = append(parseNs, float64(tParse.Nanoseconds())/replayN)
			encodeNs = append(encodeNs, float64(tEncode.Nanoseconds())/replayN)
		}
		for k := opKind(0); k < numOps; k++ {
			put("kv."+opNames[k]+"_ns"+suffix, medianFloat(sum[k]))
		}
		if d == memtx.DirectUpdate {
			put("wire.parse_ns", medianFloat(parseNs))
			put("wire.encode_ns", medianFloat(encodeNs))
		}
	}
	return logs, nil
}

// concurrentAborts replays the workload from two goroutines at once on one
// direct store, the generator's connection count, and reports how attempts
// ended: the contention figures a single thread cannot show.
func (b *bench) concurrentAborts(put func(string, float64)) error {
	s := b.newStore(memtx.DirectUpdate)
	m := newModel(b.w, conns, b.seed+1)
	per := make([][]request, conns)
	for i := 0; i < conns*replayN; i++ {
		r := m.next(i)
		per[r.conn] = append(per[r.conn], r)
	}
	st0 := shardStats(s)
	var mt0 engine.MetricsSnapshot
	for i := 0; i < s.Shards(); i++ {
		mt0 = addMetrics(mt0, s.ShardTM(i).Metrics())
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var keys [2][]byte
			for i := range per[c] {
				if err := b.execKV(s, &per[c][i], keys[:]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st := shardStats(s).Sub(st0)
	var mt engine.MetricsSnapshot
	for i := 0; i < s.Shards(); i++ {
		mt = addMetrics(mt, s.ShardTM(i).Metrics())
	}
	commits := float64(st.Commits)
	put("engine.commit_frac", ratio(commits, float64(st.Starts)))
	put("engine.cm_waits_per_commit", ratio(float64(st.CMWaits), commits))
	for _, c := range engine.AbortCauses {
		put("engine.aborts_per_commit."+c.String(), ratio(float64(mt.Aborts(c)-mt0.Aborts(c)), commits))
	}
	return nil
}

func addMetrics(a, b engine.MetricsSnapshot) engine.MetricsSnapshot {
	for i := range a.AbortsByCause {
		a.AbortsByCause[i] += b.AbortsByCause[i]
	}
	return a
}

// walOps is the write effect each write request logs.
func (b *bench) walOps(r *request, val []byte) []wal.Op {
	switch r.kind {
	case opSet:
		return []wal.Op{{Key: b.t.keys[r.key], Val: appendValue(val[:0], b.w.valueSize, int(r.key), r.arg)}}
	case opIncr:
		return []wal.Op{{Key: b.t.ctrs[r.key], Val: kv.FormatInt(r.arg)}}
	case opTransfer:
		return []wal.Op{{Key: b.t.accts[r.key], Val: kv.FormatInt(initialBalance - 1)},
			{Key: b.t.accts[r.key2], Val: kv.FormatInt(initialBalance + 1)}}
	}
	return nil
}

// walLayer times the WAL's encode, append and sync paths on the stream's
// write effects, on the OS filesystem holding the data directory and on the
// in-memory walfs, and replays a durable store's log.
func (b *bench) walLayer(put func(string, float64)) error {
	var records [][]wal.Op
	for _, r := range b.replayStream(replayN) {
		if r.kind != opGet {
			records = append(records, b.walOps(&r, nil))
		}
	}
	if len(records) == 0 {
		return nil
	}
	var enc []float64
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for _, ops := range records {
			wal.EncodeCommit(ops).Release()
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/float64(len(records)))
	}
	put("wal.encode_ns", medianFloat(enc))

	for _, fsys := range []struct {
		name string
		fs   walfs.FS
	}{{"wal.append_ns", nil}, {"wal.append_ns.memfs", walfs.NewMem()}} {
		dir := filepath.Join(b.dir, "wal-"+fsys.name)
		ns, err := appendCost(dir, fsys.fs, records)
		if err != nil {
			return fmt.Errorf("%s: %w", fsys.name, err)
		}
		put(fsys.name, ns)
	}

	fsync, p99, err := fsyncCost(filepath.Join(b.dir, "fsync-probe"), 300)
	if err != nil {
		return err
	}
	put("wal.fsync_us", fsync)
	put("wal.fsync_p99_us", p99)
	wait, err := syncWait(filepath.Join(b.dir, "wal-syncwait"), records[:min(len(records), 300)])
	if err != nil {
		return err
	}
	put("wal.sync_wait_us", wait)
	return b.durableReplay(put)
}

// openLog opens a fresh single-shard log under dir.
func openLog(dir string, fs walfs.FS, batch int, interval time.Duration) (*wal.Manager, error) {
	m, _, err := wal.Recover(wal.Options{Dir: dir, FsyncBatch: batch, FsyncInterval: interval, FS: fs}, 1)
	if err != nil {
		return nil, err
	}
	if err := m.Start([]uint64{1}, 0); err != nil {
		return nil, err
	}
	return m, nil
}

// appendCost is the median over three passes of the mean Append call, with
// fsync off so only encode-and-enqueue is timed.
func appendCost(dir string, fs walfs.FS, records [][]wal.Op) (float64, error) {
	m, err := openLog(dir, fs, 0, 0)
	if err != nil {
		return 0, err
	}
	l := m.Log(0)
	var per []float64
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for _, ops := range records {
			if _, err := l.Append(wal.EncodeCommit(ops)); err != nil {
				m.Close()
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(records)))
	}
	return medianFloat(per), m.Close()
}

// fsyncCost times n appends of a 300-byte record each followed by fsync,
// on the filesystem that holds the data directory: median and p99 in us.
func fsyncCost(path string, n int) (float64, float64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	rec := make([]byte, 300)
	ts := make([]int64, n)
	for i := range ts {
		if _, err := f.Write(rec); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
		ts[i] = int64(time.Since(t0))
	}
	s := sortedCopy(ts)
	return usOf(percentile(s, 0.5)), usOf(percentile(s, 0.99)), nil
}

// syncWait is the median time from Append returning to Sync returning for
// one writer under stmkvd's default group commit (batch 8, interval 1ms).
func syncWait(dir string, records [][]wal.Op) (float64, error) {
	m, err := openLog(dir, nil, 8, time.Millisecond)
	if err != nil {
		return 0, err
	}
	l := m.Log(0)
	waits := make([]float64, 0, len(records))
	for _, ops := range records {
		lsn, err := l.Append(wal.EncodeCommit(ops))
		if err != nil {
			m.Close()
			return 0, err
		}
		t0 := time.Now()
		if err := l.Sync(lsn); err != nil {
			m.Close()
			return 0, err
		}
		waits = append(waits, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return medianFloat(waits), m.Close()
}

// durableReplay runs the stream single-threaded on a durable store over the
// in-memory walfs, for the exact records-per-command and bytes-per-record
// counts, then reopens it to time log replay.
func (b *bench) durableReplay(put func(string, float64)) error {
	fs := walfs.NewMem()
	dcfg := kv.DurableConfig{Dir: "/wal", FS: fs, FsyncBatch: 1}
	cfg := kv.Config{Shards: 16, Buckets: 1024}
	s, _, err := kv.Open(cfg, dcfg)
	if err != nil {
		return err
	}
	b.preloadStore(s)
	base := walCounters(s.WAL())
	reqs := b.replayStream(replayN)
	var keys [2][]byte
	for i := range reqs {
		if err := b.execKV(s, &reqs[i], keys[:]); err != nil {
			s.Close()
			return err
		}
	}
	c := walCounters(s.WAL())
	appends, bytes := c["stmkvd_wal_appends_total"]-base["stmkvd_wal_appends_total"],
		c["stmkvd_wal_append_bytes_total"]-base["stmkvd_wal_append_bytes_total"]
	put("wal.records_per_cmd", appends/replayN)
	put("wal.bytes_per_record", ratio(bytes, appends))
	b.record("replay_wal_counts", map[string]float64{"cmds": replayN, "appends": appends, "bytes": bytes})
	if err := s.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	s, stats, err := kv.Open(cfg, dcfg)
	if err != nil {
		return err
	}
	put("wal.replay_records_per_s", float64(stats.Records+stats.SnapshotPairs)/time.Since(t0).Seconds())
	return s.Close()
}

func walCounters(m *wal.Manager) map[string]float64 {
	out := map[string]float64{}
	for _, x := range m.ObsMetrics() {
		out[x.Name] += float64(x.Value)
	}
	return out
}

// reportSpans writes the span file and prints each span name's self time.
func (b *bench) reportSpans(logs []*spanLog) error {
	path := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	if err := writeSpans(path, logs); err != nil {
		return err
	}
	self, count := selfTimes(logs)
	b.note("  spans: %s", path)
	rec := map[string]map[string]float64{}
	for _, name := range sortedKeys(self) {
		mean := float64(self[name]) / float64(count[name])
		b.note("    %-22s %9d spans  self %10.1f ns/span", name, count[name], mean)
		rec[name] = map[string]float64{"spans": float64(count[name]), "self_ns_per_span": mean}
	}
	b.record("span_self_time", rec)
	return nil
}
