package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"memtx/internal/server/wire"
)

// setOnly is a minimal workload for exercising the generator: every request
// is a SET, which a fake server can answer with OK.
var setOnly = &workload{name: "set-only", keys: 100, valueSize: 32, mix: [numOps]float64{opSet: 1}, byKey: true}

// fakeServer answers every frame on one connection with OK, in order. When
// it reaches request number stallAt it sleeps for stall first, once.
func fakeServer(t *testing.T, stallAt int, stall time.Duration) (addr string, stalledAt chan time.Time) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	stalledAt = make(chan time.Time, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		ok := wire.AppendFrame(nil, []byte("OK"))
		for n := 0; ; n++ {
			if _, err := wire.ReadFrame(br, 0); err != nil {
				return
			}
			if n == stallAt {
				stalledAt <- time.Now()
				time.Sleep(stall)
			}
			if _, err := c.Write(ok); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), stalledAt
}

// TestCoordinatedOmission checks that a single server stall shows in the
// latency of every request scheduled behind it: latency is timed from each
// request's due time, so a request due 10ms into a 50ms stall must read at
// least 40ms, however late the generator got to send it.
func TestCoordinatedOmission(t *testing.T) {
	const stall = 50 * time.Millisecond
	const stallAt = 200
	addr, stalledAt := fakeServer(t, stallAt, stall)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	m := newModel(setOnly, 1, 7)
	tg := newTarget(setOnly, m)
	per := m.schedule(2000, 0.5)
	res := runPhase([]net.Conn{nc}, tg, per, 0.5, phaseOpts{drain: 2 * time.Second})
	if err := tg.err(); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted != len(per[0]) {
		t.Fatalf("failed %d of %d", res.failed, res.attempted)
	}
	select {
	case <-stalledAt:
	default:
		t.Fatal("the fake server never stalled")
	}
	reqs, lat := res.runs[0].reqs, res.runs[0].lat
	stallDue := reqs[stallAt].due
	behind := 0
	for j := stallAt; j < len(reqs) && reqs[j].due < stallDue+int64(stall); j++ {
		// The stall began no earlier than request stallAt's due time and
		// lasted stall, so request j could not be answered before then.
		floor := stallDue + int64(stall) - reqs[j].due
		if lat[j] < floor-int64(time.Millisecond) {
			t.Errorf("request %d due %v after the stall began reads %v, want >= %v",
				j, time.Duration(reqs[j].due-stallDue), time.Duration(lat[j]), time.Duration(floor))
		}
		behind++
	}
	if behind < 50 {
		t.Fatalf("only %d requests were scheduled during the stall", behind)
	}
	if got := res.lat.Maxus; got < float64(stall/time.Microsecond) {
		t.Errorf("max latency %.0fus, want the %v stall to show", got, stall)
	}
	if res.lat.Samples != len(reqs) {
		t.Errorf("samples %d, want %d", res.lat.Samples, len(reqs))
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {0.01, 1}, {1, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := beyond(100, 0.99); got != 1 {
		t.Errorf("beyond(100, 0.99) = %d, want 1", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	// Failed requests count as missing every limit and sort last.
	lat := []int64{3000, 1000, missed, 2000}
	s := summarize(lat)
	if s.Samples != 4 || s.Failed != 1 || s.P50us != 2 || s.Maxus != usOf(missed) {
		t.Errorf("summarize = %+v", s)
	}
	// Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got := lowerQuartile([]float64{5, 1, 4, 2, 3}); got != 1.5 {
		t.Errorf("lowerQuartile(1..5) = %v, want 1.5", got)
	}
	// statistics.quantiles([10, 20, 30, 40, 50, 60, 70, 80], n=4)[0] == 22.5
	if got := lowerQuartile([]float64{10, 20, 30, 40, 50, 60, 70, 80}); got != 22.5 {
		t.Errorf("lowerQuartile(10..80) = %v, want 22.5", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianFloat = %v, want 2.5", got)
	}
}

func TestWindowed(t *testing.T) {
	// Four 0.25s windows with p50s 1, 2, 3 and 100 (ms): the lower quartile
	// ignores the slow window.
	cr := &connRun{}
	for w, ms := range []int64{1, 2, 3, 100} {
		for i := 0; i < 100; i++ {
			cr.reqs = append(cr.reqs, request{due: int64(w)*250e6 + int64(i)*1e6})
			cr.lat = append(cr.lat, ms*1e6)
		}
	}
	wins, p50, _ := windowed([]*connRun{cr}, 1, 0.25)
	if len(wins) != 4 {
		t.Fatalf("%d windows, want 4", len(wins))
	}
	if p50 != 1250 { // quartile of 1000, 2000, 3000, 100000 us
		t.Errorf("lower-quartile p50 %v us, want 1250", p50)
	}
}

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := newModel(w, conns, 42).schedule(w.lowRate, 0.2)
		b := newModel(w, conns, 42).schedule(w.lowRate, 0.2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two request streams", w.name)
		}
		c := newModel(w, conns, 43).schedule(w.lowRate, 0.2)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	for _, w := range workloads {
		m := newModel(w, conns, 1)
		per := m.schedule(w.lowRate, 1)
		var count [numOps]int
		n := 0
		for c, reqs := range per {
			last := int64(-1)
			for _, r := range reqs {
				if r.due < last {
					t.Fatalf("%s: connection %d out of due order", w.name, c)
				}
				last = r.due
				if w.byKey && int(r.key)%conns != c {
					t.Fatalf("%s: key %d routed to connection %d", w.name, r.key, c)
				}
				if r.kind == opTransfer && (r.key == r.key2 || w.byKey && int(r.key2)%conns != c) {
					t.Fatalf("%s: bad transfer %d -> %d on connection %d", w.name, r.key, r.key2, c)
				}
				count[r.kind]++
				n++
			}
		}
		if rate := float64(n); rate < 0.9*w.lowRate || rate > 1.1*w.lowRate {
			t.Errorf("%s: %d requests in 1s at %v/s", w.name, n, w.lowRate)
		}
		for k := opKind(0); k < numOps; k++ {
			got := float64(count[k]) / float64(n)
			if got < w.mix[k]-0.02 || got > w.mix[k]+0.02 {
				t.Errorf("%s: %s fraction %.3f, want %.2f", w.name, opNames[k], got, w.mix[k])
			}
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := appendValue(nil, 64, 123, 45)
	if got, err := parseValue(v, 64, 123); err != nil || got != 45 {
		t.Fatalf("parseValue = %d, %v", got, err)
	}
	if _, err := parseValue(v, 64, 124); err == nil {
		t.Error("a value for key 123 passed as key 124's")
	}
	v[40] ^= 1
	if _, err := parseValue(v, 64, 123); err == nil {
		t.Error("a corrupted value passed")
	}
}

func TestCrashBounds(t *testing.T) {
	w := &workload{name: "t", keys: 4, valueSize: 32, counters: 2, accounts: 4,
		mix: [numOps]float64{opSet: 0.4, opIncr: 0.3, opTransfer: 0.3}, byKey: true}
	m := newModel(w, 1, 3)
	before := m.snapshot()
	per := m.schedule(1000, 0.1)
	cr := &connRun{reqs: per[0], lat: make([]int64, len(per[0])), sent: len(per[0]), acked: len(per[0]) / 2}
	ver, ctr, bal := crashBounds(before, []*connRun{cr})
	for i := range m.ver {
		if ver.hi[i] != m.ver[i] || ver.lo[i] > ver.hi[i] {
			t.Errorf("key %d: bounds %d..%d, model %d", i, ver.lo[i], ver.hi[i], m.ver[i])
		}
	}
	for i := range m.ctr {
		if ctr.hi[i] != m.ctr[i] || ctr.lo[i] > ctr.hi[i] {
			t.Errorf("counter %d: bounds %d..%d, model %d", i, ctr.lo[i], ctr.hi[i], m.ctr[i])
		}
	}
	for i := range m.bal {
		if m.bal[i] < bal.lo[i] || m.bal[i] > bal.hi[i] {
			t.Errorf("account %d: bounds %d..%d exclude the model's %d", i, bal.lo[i], bal.hi[i], m.bal[i])
		}
	}
	// With every request acknowledged the bounds close on the model.
	cr.acked = cr.sent
	ver, ctr, bal = crashBounds(before, []*connRun{cr})
	if !reflect.DeepEqual(ver.lo, m.ver) || !reflect.DeepEqual(ver.hi, m.ver) ||
		!reflect.DeepEqual(ctr.lo, m.ctr) || !reflect.DeepEqual(bal.lo, m.bal) || !reflect.DeepEqual(bal.hi, m.bal) {
		t.Error("fully acknowledged bounds differ from the model")
	}
}

func TestSelfTime(t *testing.T) {
	l := newSpanLog("test", 0)
	id := l.add(0, "request", 0, 100)
	l.add(id, "a", 10, 30)
	l.add(id, "b", 20, 50)
	self, count := selfTimes([]*spanLog{l})
	if self["request"] != 60 || self["a"] != 20 || self["b"] != 30 || count["request"] != 1 {
		t.Errorf("self %v count %v", self, count)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this command runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bm struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var got []string
	for _, w := range bm.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", got, names)
	}
	same := func(what string, listed []entry, want []struct{ name, unit string }) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", what, len(listed), len(want))
			return
		}
		for i, m := range want {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, command %s %s", what, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	same("per_layer", bm.PerLayer, layerMetrics)
}
