package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"memtx/internal/kvload"
)

// opKind is one request type the generator sends.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opIncr
	opTransfer
	numOps
)

var opNames = [numOps]string{"get", "set", "incr", "transfer"}

// initialBalance seeds every account. Transfers move one unit, so no
// account comes near zero in a run and every TRANSFER must answer :1.
const initialBalance = 1_000_000

// workload is one traffic mix plus the server flags it names, the two fixed
// offered rates, the latency limit and the capacity ladder. The rates and the
// ladder were fixed from open-loop sweeps on a 2-CPU host (generator and
// server sharing both CPUs); each carries its reason beside it.
type workload struct {
	name string
	why  string

	keys      int         // GET/SET keyspace
	valueSize int         // SET value bytes
	dist      kvload.Dist // key popularity, for every keyed draw
	counters  int         // INCR keyspace
	accounts  int         // TRANSFER keyspace
	mix       [numOps]float64

	// byKey routes every request on key k to connection k mod conns, and
	// draws both TRANSFER accounts from one connection's partition. A
	// connection's requests execute in order, so each GET and INCR has one
	// exact expected answer and the last acknowledged write to each key is
	// well defined across a crash. Without it requests alternate between
	// connections, so the hot keys see cross-connection conflicts.
	byKey bool

	serverFlags []string // stmkvd flags besides -addr
	durable     bool     // serverFlags include -wal-dir (filled in per run)
	walPolicy   string   // group-commit and checkpoint policy, for the record

	lowRate, highRate float64 // fixed offered rates, requests/s
	// blocks is how many blocks of each fixed rate a run alternates
	// between. In memory, interleaving spreads both rates over the run, so
	// a stretch of host CPU starvation lands on both rather than wiping out
	// one.
	blocks     int
	ladder     []float64 // capacity ladder, requests/s, ascending
	p99LimitUs float64   // latency limit on p99 for the ladder
	// lateLimitUs is the generator-lateness p99 above which a run is
	// invalid: a tenth of the p99 limit. The generator shares the CPUs with
	// the server, so a server that spins delays its wake-ups; latency is
	// timed from the due time, so lateness inflates the figures, and past
	// this limit the offered schedule no longer held.
	lateLimitUs float64
}

var workloads = []*workload{
	{
		name: "read-mostly",
		why:  "95% GET / 5% SET, zipf 0.99 over 100k keys, no WAL: wire, read batching, kv lookup and engine read barriers",
		keys: 100_000, valueSize: 64,
		dist:  kvload.Dist{Kind: kvload.DistZipf, Theta: 0.99},
		mix:   [numOps]float64{opGet: 0.95, opSet: 0.05},
		byKey: true,
		// Sweeps put the knee at 240-330k/s: p99 holds a 10-30ms floor
		// below it and passes 100ms above, so the 50ms limit puts capacity
		// at saturation rather than in the noise; the ladder climbs in ~8%
		// steps across that range. The fixed rates sit below a quarter and
		// two thirds of it: under load the hypervisor steals 15-50% of the
		// two CPUs, and at 160k/s the p50 of repeated runs spread 0.6 of its
		// median; at 80k/s it holds.
		lowRate: 30_000, highRate: 80_000, blocks: 7,
		ladder:      []float64{220_000, 240_000, 260_000, 280_000, 300_000, 325_000, 350_000, 380_000},
		p99LimitUs:  50_000,
		lateLimitUs: 5_000,
	},
	{
		name: "durable-write",
		why:  "30% GET / 40% SET 256B / 20% INCR / 10% TRANSFER, uniform, WAL with default group commit: wal append, fsync, checkpoints, 2PC",
		keys: 10_000, valueSize: 256, counters: 10_000, accounts: 1_000,
		mix:     [numOps]float64{opGet: 0.30, opSet: 0.40, opIncr: 0.20, opTransfer: 0.10},
		byKey:   true,
		durable: true,
		// -snapshot-every 1s: several checkpoints finish inside every run.
		serverFlags: []string{"-snapshot-every", "1s"},
		walPolicy:   "fsync batch 8, fsync interval 1ms (stmkvd defaults); checkpoint every 1s",
		// Latency is set by the 1ms group-commit interval and checkpoints:
		// p50 3-13ms and p99 25-90ms up to 50k/s, then 225ms at 60k/s and
		// 685ms at 70k/s (one-second sweeps). The 150ms limit puts capacity
		// near 55-80k/s; low is a quarter of it, high two thirds. The
		// server's CPU use delays the generator's wake-ups by up to ~2ms
		// here, well under the latency. One block per rate: alternating 1s
		// blocks left each low block behind a high block's checkpoint and
		// fsync backlog, and ten runs' low p50 spread 0.27 of its median;
		// run contiguously it spread 0.07.
		lowRate: 14_000, highRate: 36_000, blocks: 1,
		ladder:      []float64{45_000, 50_000, 55_000, 60_000, 66_000, 73_000, 80_000, 88_000},
		p99LimitUs:  150_000,
		lateLimitUs: 15_000,
	},
	{
		name: "hot-rmw",
		why:  "50% INCR / 20% TRANSFER / 20% GET / 10% SET, 5% of draws on one hot key, no WAL: update barriers, undo logging, aborts, write batching",
		keys: 1_000, valueSize: 64, counters: 1_000, accounts: 1_000,
		dist: kvload.Dist{Kind: kvload.DistHot, HotFrac: 0.05},
		mix:  [numOps]float64{opGet: 0.20, opSet: 0.10, opIncr: 0.50, opTransfer: 0.20},
		// Two regimes: at 80k/s every 1s block read a p50 near 200us, but
		// with 20% of draws on the hot key, whole seconds at 100k/s melted
		// down to p50s of 50-180ms (conflicting batches back off and the
		// backlog feeds itself) while interleaved 38k/s blocks stayed calm.
		// With 5% on the hot key aborts stay non-zero and the fixed rates
		// sit on the stable side; capacity (p99 <= 50ms) reads 140-180k/s.
		lowRate: 22_000, highRate: 60_000, blocks: 7,
		ladder:      []float64{120_000, 140_000, 160_000, 180_000, 200_000, 225_000, 250_000, 280_000},
		p99LimitUs:  50_000,
		lateLimitUs: 5_000,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func keyName(i int) []byte  { return []byte(fmt.Sprintf("k%06d", i)) }
func ctrName(i int) []byte  { return []byte(fmt.Sprintf("c%06d", i)) }
func acctName(i int) []byte { return []byte(fmt.Sprintf("a%05d", i)) }

// request is one scheduled request. due is its send time in ns from the
// phase start; latency is measured from due, never from the actual send.
type request struct {
	due   int64
	key   int32 // key, counter or source account index
	key2  int32 // TRANSFER destination account
	arg   int64 // SET: version written; GET/INCR: expected answer (see check)
	kind  opKind
	exact bool // arg is the exact expected answer, not an upper bound
	conn  uint8
}

// model is the generator's view of the store: what the preload wrote and
// what every generated request will have written once it executes. It is
// advanced as requests are generated, so expectations are exact under
// byKey routing.
type model struct {
	w        *workload
	conns    int
	rng      *rand.Rand
	keySamp  *kvload.Sampler
	ctrSamp  *kvload.Sampler
	acctSamp *kvload.Sampler
	cdf      [numOps]float64

	ver []int64 // per key: highest version written
	ctr []int64 // per counter: value after every generated INCR
	bal []int64 // per account: balance after every generated TRANSFER
}

func newModel(w *workload, conns int, seed int64) *model {
	m := &model{
		w:     w,
		conns: conns,
		rng:   rand.New(rand.NewSource(seed)),
		ver:   make([]int64, w.keys),
		ctr:   make([]int64, w.counters),
		bal:   make([]int64, w.accounts),
	}
	m.keySamp = kvload.NewSampler(w.dist, w.keys)
	if w.counters > 0 {
		m.ctrSamp = kvload.NewSampler(w.dist, w.counters)
	}
	if w.accounts > 0 {
		m.acctSamp = kvload.NewSampler(w.dist, w.accounts)
	}
	for i := range m.bal {
		m.bal[i] = initialBalance
	}
	sum := 0.0
	for k := opKind(0); k < numOps; k++ {
		sum += w.mix[k]
		m.cdf[k] = sum
	}
	// Rounding must not leave a sliver of draws for a kind the mix omits.
	for k := int(numOps) - 1; k >= 0 && m.cdf[k] >= sum-1e-9; k-- {
		m.cdf[k] = 2
	}
	return m
}

// drawPartner draws a TRANSFER destination different from src; under byKey
// it lies in src's partition (the same index mod conns).
func (m *model) drawPartner(src int) int {
	for {
		d := m.acctSamp.Next(m.rng)
		if m.w.byKey {
			d += src%m.conns - d%m.conns
			if d >= m.w.accounts {
				d -= m.conns
			}
		}
		if d != src {
			return d
		}
	}
}

// next draws one request (without its due time) and advances the model.
func (m *model) next(seq int) request {
	p := m.rng.Float64()
	kind := opGet
	for kind < numOps-1 && p >= m.cdf[kind] {
		kind++
	}
	var r request
	r.kind = kind
	switch kind {
	case opGet:
		k := m.keySamp.Next(m.rng)
		r.key = int32(k)
		r.arg = m.ver[k]
		r.exact = m.w.byKey
	case opSet:
		k := m.keySamp.Next(m.rng)
		m.ver[k]++
		r.key = int32(k)
		r.arg = m.ver[k]
	case opIncr:
		k := m.ctrSamp.Next(m.rng)
		m.ctr[k]++
		r.key = int32(k)
		r.arg = m.ctr[k]
		r.exact = m.w.byKey
	case opTransfer:
		a := m.acctSamp.Next(m.rng)
		b := m.drawPartner(a)
		m.bal[a]--
		m.bal[b]++
		r.key, r.key2 = int32(a), int32(b)
	}
	if m.w.byKey {
		r.conn = uint8(int(r.key) % m.conns)
	} else {
		r.conn = uint8(seq % m.conns)
	}
	return r
}

// schedule generates a phase of dur seconds: Poisson arrivals at rate
// requests/s, split per connection in send order.
func (m *model) schedule(rate float64, dur float64) [][]request {
	per := make([][]request, m.conns)
	est := int(rate*dur/float64(m.conns)*1.1) + 16
	for i := range per {
		per[i] = make([]request, 0, est)
	}
	t := 0.0
	limit := dur * 1e9
	for seq := 0; ; seq++ {
		t += m.rng.ExpFloat64() / rate * 1e9
		if t >= limit {
			break
		}
		r := m.next(seq)
		r.due = int64(t)
		per[r.conn] = append(per[r.conn], r)
	}
	return per
}

// Values carry their key and version so every GET can be checked: "k" +
// 8-digit key + "v" + 10-digit version, then filler derived from both up to
// the workload's value size.
const valueHeader = 20

func fillByte(key int, ver int64, i int) byte {
	h := uint64(key)*0x9E3779B97F4A7C15 ^ uint64(ver)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return 'a' + byte((h+uint64(i)*7)%26)
}

func appendValue(dst []byte, size, key int, ver int64) []byte {
	dst = append(dst, 'k')
	dst = appendPadded(dst, int64(key), 8)
	dst = append(dst, 'v')
	dst = appendPadded(dst, ver, 10)
	for i := valueHeader; i < size; i++ {
		dst = append(dst, fillByte(key, ver, i))
	}
	return dst
}

func appendPadded(dst []byte, v int64, width int) []byte {
	var tmp [20]byte
	b := strconv.AppendInt(tmp[:0], v, 10)
	for i := len(b); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, b...)
}

// parseValue checks that val is a value the preload or generator wrote for
// key and returns its version.
func parseValue(val []byte, size, key int) (int64, error) {
	if len(val) != size || val[0] != 'k' || val[9] != 'v' {
		return 0, fmt.Errorf("malformed value %.40q for key %d", val, key)
	}
	k, err1 := strconv.ParseInt(string(val[1:9]), 10, 64)
	v, err2 := strconv.ParseInt(string(val[10:20]), 10, 64)
	if err1 != nil || err2 != nil || int(k) != key {
		return 0, fmt.Errorf("value %.40q was not written for key %d", val, key)
	}
	for i := valueHeader; i < size; i++ {
		if val[i] != fillByte(key, v, i) {
			return 0, fmt.Errorf("value for key %d version %d corrupt at byte %d", key, v, i)
		}
	}
	return v, nil
}
