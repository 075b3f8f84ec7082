package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"memtx/internal/kvload"
)

// endToEnd are the end-to-end metrics a run reports and BENCHMARK.json
// gates, in the order they are printed.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"cpu_us_per_op", "us"}, {"peak_rss_mb", "MB"}, {"space_amp", "ratio"},
}

// drain bounds how long a phase waits for answers after its last due time;
// anything still unanswered then counts as lost.
const drain = 5 * time.Second

// window is the span of the per-window percentiles whose lower quartile a
// fixed-rate phase reports (see windowed); short phases use a fifth of
// their length.
const window = 0.25

// setups is how many times a run sets up the server; setup_s is their
// median, and the last one serves the measured phases. restarts is the same
// for recovery_s.
const (
	setups   = 3
	restarts = 5
)

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	bin     string
	dir     string // this run's scratch directory
	out     string // results directory
	trace   bool

	d       *daemon
	dataDir string
	m       *model
	t       *target
	conns   []net.Conn
	nData   int // data directories created so far

	attempted, failed int
	detail            map[string]any
}

func (b *bench) note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func (b *bench) record(key string, v any) {
	if b.detail == nil {
		b.detail = map[string]any{}
	}
	b.detail[key] = v
}

func (b *bench) cleanup() {
	closeAll(b.conns)
	b.conns = nil
	if b.d != nil {
		b.d.kill()
		b.d = nil
	}
	_ = os.RemoveAll(b.dir) // best effort: scratch only
}

func (b *bench) run() (*result, error) {
	if b.trace {
		return b.runTraced()
	}
	return b.runEndToEnd()
}

// setup starts a fresh server, preloads the keyspace and warms up with an
// open-loop phase at the low rate. It returns the time all of that took.
func (b *bench) setup(withMetrics bool) (time.Duration, error) {
	start := time.Now()
	b.dataDir = ""
	if b.w.durable {
		b.nData++
		b.dataDir = filepath.Join(b.dir, fmt.Sprintf("data-%d", b.nData))
	}
	d, err := startDaemon(b.bin, b.w.serverFlags, b.dataDir, filepath.Join(b.dir, "stmkvd.log"), withMetrics)
	if err != nil {
		return 0, err
	}
	b.d = d
	b.m = newModel(b.w, conns, b.seed)
	b.t = newTarget(b.w, b.m)
	if err := preload(d.addr, b.t); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	if b.conns, err = dialAll(d.addr, conns); err != nil {
		return 0, err
	}
	res, err := b.phase("warm-up", b.w.lowRate, 0.5)
	if err != nil {
		return 0, err
	}
	if res.failed > 0 {
		return 0, fmt.Errorf("warm-up: %d of %d requests failed", res.failed, res.attempted)
	}
	return time.Since(start), nil
}

// teardown kills the server and discards its data directory.
func (b *bench) teardown() {
	closeAll(b.conns)
	b.conns = nil
	b.d.kill()
	b.d = nil
	if b.dataDir != "" {
		_ = os.RemoveAll(b.dataDir) // scratch only
	}
}

// phase runs one open-loop phase and audits the store after it.
func (b *bench) phase(label string, rate, seconds float64) (*phaseResult, error) {
	return b.phaseTraced(label, rate, seconds, false, nil)
}

// windowFor is the window a phase of this length is split into.
func windowFor(seconds float64) float64 { return min(window, seconds/5) }

// phaseTraced is phase with optional span recording; between, when set,
// runs after the phase and before the audit (a metrics scrape must not
// count the audit's reads).
func (b *bench) phaseTraced(label string, rate, seconds float64, trace bool, between func() error) (*phaseResult, error) {
	per := b.m.schedule(rate, seconds)
	res := runPhase(b.conns, b.t, per, seconds, phaseOpts{drain: drain, trace: trace, window: windowFor(seconds)})
	if err := b.t.err(); err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	if res.broken {
		closeAll(b.conns)
		var err error
		if b.conns, err = dialAll(b.d.addr, conns); err != nil {
			return nil, err
		}
	}
	if between != nil {
		if err := between(); err != nil {
			return nil, err
		}
	}
	ctr, bal := phaseBounds(b.m, res.failed == 0)
	err := audit(b.d.addr, b.t, bounds{}, ctr, bal, false)
	// After a broken phase the server may still be working through requests
	// sent on the closed connections; audit again until that settles.
	for try := 0; err != nil && res.broken && try < 25; try++ {
		time.Sleep(200 * time.Millisecond)
		err = audit(b.d.addr, b.t, bounds{}, ctr, bal, false)
	}
	if err != nil {
		b.t.violate(fmt.Errorf("after %s: %w", label, err))
		return nil, b.t.err()
	}
	return res, nil
}

func (b *bench) count(res *phaseResult) {
	b.attempted += res.attempted
	b.failed += res.failed
}

func (b *bench) summary(label string, res *phaseResult) map[string]any {
	b.note("  %-12s offered %8.0f/s  windows of %.2fs (lower quartile): p50 %8.1f us  p99 %9.1f us | pooled: p50 %8.1f us  p99 %9.1f us  p99.9 %9.1f us  samples %d (beyond p99: %d)  failed %d  gen-late p99 %.1f us",
		label, res.rate, res.window, res.p50us, res.p99us, res.lat.P50us, res.lat.P99us, res.lat.P999us, res.lat.Samples, res.lat.Beyond99, res.failed, res.lateP99us)
	return map[string]any{"offered_per_s": res.rate, "window_s": res.window, "p50_us": res.p50us, "p99_us": res.p99us,
		"windows": res.windows, "pooled": res.lat, "failed": res.failed,
		"gen_late_p99_us": res.lateP99us, "head_mean_us": res.headMeanUs, "tail_mean_us": res.tailMeanUs}
}

func (b *bench) runEndToEnd() (*result, error) {
	w := b.w
	b.note("stmkvbench %s seed %d: %s", w.name, b.seed, w.why)
	b.note("  open loop, %d connections, low %.0f/s, high %.0f/s, p99 limit %.0f us; environment %v",
		conns, w.lowRate, w.highRate, w.p99LimitUs, b.environment())
	var setupS []float64
	for i := 0; i < setups; i++ {
		d, err := b.setup(false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			b.teardown()
		}
	}
	b.record("setup_s_each", setupS)

	pid := b.d.cmd.Process.Pid
	low, high, cpuPerOp, err := b.fixedRates(pid)
	if err != nil {
		return nil, err
	}
	okHigh := high.attempted - high.failed
	b.record("low", b.summary("low", low))
	b.record("high", b.summary("high", high))

	// Space is sized before the ladder: the ladder runs a varying number
	// of rungs, and the write-ahead log keeps every record until its
	// segment rotates, so afterwards the data directory would measure how
	// far the ladder climbed (ten runs spread 0.19 of their median).
	spaceAmp, err := b.spaceAmp(pid)
	if err != nil {
		return nil, err
	}

	capacity, err := b.ladder(low, high)
	if err != nil {
		return nil, err
	}

	hwm, err := statusKB(pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	recovery, err := b.recovery()
	if err != nil {
		return nil, err
	}
	if high.lateP99us > w.lateLimitUs || low.lateP99us > w.lateLimitUs {
		// Lateness is the median over blocks of each block's p99: past the
		// limit in most blocks, the offered schedule did not hold.
		return nil, fmt.Errorf("invalid run: generator lateness p99 %.0f/%.0f us exceeds the %.0f us limit",
			low.lateP99us, high.lateP99us, w.lateLimitUs)
	}

	values := map[string]float64{
		"setup_s":       medianFloat(setupS),
		"cpu_us_per_op": cpuPerOp,
		"peak_rss_mb":   float64(hwm) / 1024,
		"space_amp":     spaceAmp,
	}
	ms := map[string]metric{}
	for _, m := range endToEnd {
		ms[m.name] = metric{values[m.name], m.unit}
	}
	// Measured and printed, but not gated. On the 2-CPU virtual machine the
	// workloads were sized on, whose hypervisor steals 15-50% of the CPUs
	// under load, ten runs of one commit spread 0.07-0.27 of the median for
	// the p50s, 0.13-0.18 for capacity, 0.3-1.2 for the p99s and up to 0.75
	// for recovery in memory, and the p50 medians of two ten-run sets a
	// quarter of an hour apart differed by 22%. Only what repeats within a
	// tenth is gated.
	unresolved := map[string]metric{
		"p50_us.low":     {low.p50us, "us"},
		"p50_us.high":    {high.p50us, "us"},
		"p99_us.low":     {low.p99us, "us"},
		"p99_us.high":    {high.p99us, "us"},
		"capacity_ops_s": {capacity, "1/s"},
		"recovery_s":     {recovery, "s"},
	}
	b.record("unresolved_metrics", unresolved)
	b.note("end-to-end metrics (%s):", w.name)
	samples := map[string]int{"p50_us.low": low.lat.Samples, "p99_us.low": low.lat.Samples,
		"p50_us.high": high.lat.Samples, "p99_us.high": high.lat.Samples, "cpu_us_per_op": okHigh,
		"setup_s": setups, "recovery_s": restarts}
	show := func(k string, m metric, note string) {
		extra := ""
		if n, ok := samples[k]; ok {
			extra = fmt.Sprintf("  (samples %d)", n)
		}
		b.note("  %-16s %14s %s%s%s", k, fmtFloat(m.Value), m.Unit, extra, note)
	}
	for _, m := range endToEnd {
		show(m.name, ms[m.name], "")
	}
	for _, k := range sortedKeys(unresolved) {
		show(k, unresolved[k], "  [unresolved: reported, not gated]")
	}
	b.note("  fail_frac        %14s (failed %d / attempted %d; carried by the result's failed/attempted)",
		fmtFloat(float64(b.failed)/float64(max(b.attempted, 1))), b.failed, b.attempted)
	return &result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: ms}, nil
}

// fixedRates runs the low and high rates in the workload's number of
// alternating blocks and merges each rate's blocks. It also returns the server's CPU time per answered
// request over the high blocks, in microseconds.
func (b *bench) fixedRates(pid int) (low, high *phaseResult, cpuPerOp float64, err error) {
	w := b.w
	blockS := 0.35 * b.seconds / float64(w.blocks)
	var lows, highs []*phaseResult
	var ticks int64
	for i := 0; i < w.blocks; i++ {
		res, err := b.phase(fmt.Sprintf("low %d", i), w.lowRate, blockS)
		if err != nil {
			return nil, nil, 0, err
		}
		lows = append(lows, res)
		t0, err := cpuTicks(pid)
		if err != nil {
			return nil, nil, 0, err
		}
		res, err = b.phaseTraced(fmt.Sprintf("high %d", i), w.highRate, blockS, false, func() error {
			// Read the CPU clock before the audit's reads run.
			t1, err := cpuTicks(pid)
			ticks += t1 - t0
			return err
		})
		if err != nil {
			return nil, nil, 0, err
		}
		highs = append(highs, res)
	}
	low, high = mergePhases(lows), mergePhases(highs)
	b.count(low)
	b.count(high)
	cpuPerOp = float64(ticks) * float64(clockTick/time.Microsecond) / float64(max(high.attempted-high.failed, 1))
	return low, high, cpuPerOp, nil
}

// ladder offers each ladder rate in turn. A rung passes when its pooled
// p99 met the limit with no failure and no growing backlog; three failed
// rungs in a row end the climb. Capacity is the k-th rung when k rungs
// passed: on a host whose CPU share swings, a rung can fail below the knee
// or pass above it, and counting passes moves the figure one rung per such
// rung, where "highest pass" or "first failure" would jump to it. With no
// rung passing it is the higher fixed rate that passed.
func (b *bench) ladder(low, high *phaseResult) (float64, error) {
	w := b.w
	// A rung is judged on its pooled p99, not on the quiet windows: under
	// overload latency grows through the rung, and only its whole tail
	// shows that. A rung too short for the backlog to reach the limit is
	// caught by its last quarter waiting far longer than its first.
	pass := func(r *phaseResult) bool {
		growing := r.tailMeanUs > 2*r.headMeanUs+w.p99LimitUs/10
		return r.failed == 0 && r.lat.P99us <= w.p99LimitUs && !growing
	}
	var rungs []map[string]any
	passed, misses := 0, 0
	for i, rate := range w.ladder {
		time.Sleep(50 * time.Millisecond)
		res, err := b.phase(fmt.Sprintf("rung %d", i), rate, 0.3*b.seconds/float64(len(w.ladder)))
		if err != nil {
			return 0, err
		}
		b.count(res)
		s := b.summary(fmt.Sprintf("rung %.0f", rate), res)
		s["pass"] = pass(res)
		rungs = append(rungs, s)
		if pass(res) {
			passed++
			misses = 0
		} else if misses++; misses == 3 {
			break
		}
	}
	b.record("ladder", rungs)
	if passed > 0 {
		return w.ladder[passed-1], nil
	}
	capacity := 0.0
	for _, r := range []*phaseResult{low, high} {
		if pass(r) {
			capacity = r.rate
		}
	}
	return capacity, nil
}

// spaceAmp is the bytes the server holds per live user byte: its data
// directory when durable, its resident memory otherwise.
func (b *bench) spaceAmp(pid int) (float64, error) {
	live := b.liveBytes()
	b.record("live_user_bytes", live)
	if !b.w.durable {
		rss, err := statusKB(pid, "VmRSS")
		return float64(rss*1024) / float64(live), err
	}
	n, err := dirBytes(b.dataDir)
	b.record("data_dir_bytes", n)
	return float64(n) / float64(live), err
}

// liveBytes is the user data the store holds: every key and value.
func (b *bench) liveBytes() int64 {
	var n int64
	for _, k := range b.t.keys {
		n += int64(len(k) + b.w.valueSize)
	}
	for i, k := range b.t.ctrs {
		n += int64(len(k) + len(fmt.Sprint(b.m.ctr[i])))
	}
	for i, k := range b.t.accts {
		n += int64(len(k) + len(fmt.Sprint(b.m.bal[i])))
	}
	return n
}

// recovery measures the time from restarting a SIGKILLed server until it
// serves the dataset again, over several kills. On a durable workload the
// first kill lands mid-traffic (a crash drill at the high rate) and the
// restarted server must hold every acknowledged write; later kills hit an
// idle server. In memory nothing survives, so the figure is restart plus the
// client loading the dataset again.
func (b *bench) recovery() (float64, error) {
	var times []float64
	for i := 0; i < restarts; i++ {
		kill := func() { _ = b.d.cmd.Process.Kill() } // exit is awaited below
		var runs []*connRun
		var before *model
		if i == 0 && b.w.durable {
			before = b.m.snapshot()
			per := b.m.schedule(b.w.highRate, 0.5)
			res := runPhase(b.conns, b.t, per, 0.5, phaseOpts{drain: time.Second, killAt: 250 * time.Millisecond, onKill: kill})
			runs = res.runs
			if err := b.t.err(); err != nil {
				return 0, fmt.Errorf("crash drill: %w", err)
			}
		} else {
			kill()
		}
		b.d.kill()
		closeAll(b.conns)
		b.conns = nil
		restart := time.Now()
		d, err := startDaemon(b.bin, b.w.serverFlags, b.dataDir, filepath.Join(b.dir, "stmkvd.log"), false)
		if err != nil {
			return 0, fmt.Errorf("restart: %w", err)
		}
		b.d = d
		if !b.w.durable {
			// Nothing survives in memory: the dataset is back once the
			// client has loaded it again.
			if err := preload(d.addr, b.t); err != nil {
				return 0, fmt.Errorf("reload: %w", err)
			}
		}
		if err := getOnce(d.addr, b.t.keys[0]); err != nil {
			return 0, err
		}
		times = append(times, time.Since(restart).Seconds())
		if runs != nil {
			ver, ctr, bal := crashBounds(before, runs)
			acked, sent := 0, 0
			for _, cr := range runs {
				acked += cr.acked
				sent += cr.sent
			}
			if err := audit(d.addr, b.t, ver, ctr, bal, true); err != nil {
				b.t.violate(fmt.Errorf("after crash and recovery: %w", err))
				return 0, b.t.err()
			}
			b.note("  crash drill: killed with %d of %d sent requests acknowledged; all acknowledged writes recovered", acked, sent)
			b.record("crash_drill", map[string]int{"acked": acked, "sent": sent})
		}
	}
	b.record("recovery_s_each", times)
	return medianFloat(times), nil
}

// getOnce answers one GET, which must find key.
func getOnce(addr string, key []byte) error {
	c, err := kvload.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	_, ok, err := c.Get(key)
	if err == nil && !ok {
		err = fmt.Errorf("GET %s after restart: key missing", key)
	}
	return err
}

// commitID names the code under test: the git commit when the checkout is
// a repository, and always the stmkvd binary's SHA-256 prefix.
func commitID(bin string) string {
	id := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		id = strings.TrimSpace(string(out))
	}
	f, err := os.Open(bin)
	if err != nil {
		return id
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return id
	}
	return id + " stmkvd-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
