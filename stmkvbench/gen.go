package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"memtx/internal/kv"
	"memtx/internal/server/wire"
)

// target is what the generator needs to encode requests and check answers:
// the key spellings and the model whose expectations the answers must meet.
type target struct {
	w     *workload
	m     *model
	keys  [][]byte
	ctrs  [][]byte
	accts [][]byte

	violations atomic.Int64
	mu         sync.Mutex
	first      error
	refusals   []string // the first few refused requests, for the record
}

func newTarget(w *workload, m *model) *target {
	t := &target{w: w, m: m}
	t.keys = names(w.keys, keyName)
	t.ctrs = names(w.counters, ctrName)
	t.accts = names(w.accounts, acctName)
	return t
}

func names(n int, f func(int) []byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// noteRefusal keeps the first few refusals for the record.
func (t *target) noteRefusal(r *request, resp *wire.Command) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.refusals) < 8 {
		msg := resp.Name
		for _, a := range resp.Args {
			msg += " " + string(a.B)
		}
		t.refusals = append(t.refusals, opNames[r.kind]+": "+msg)
	}
}

// violate records a correctness violation; the run then reports no numbers.
func (t *target) violate(err error) {
	if t.violations.Add(1) == 1 {
		t.mu.Lock()
		t.first = err
		t.mu.Unlock()
	}
}

// err returns the first violation, if any.
func (t *target) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.first == nil {
		return nil
	}
	return fmt.Errorf("%d correctness violations, first: %w", t.violations.Load(), t.first)
}

var one = wire.Bare("1")

// appendRequest appends r's frame to dst; scratch is reused for the body.
func (t *target) appendRequest(dst []byte, scratch *[]byte, r *request) []byte {
	b := (*scratch)[:0]
	switch r.kind {
	case opGet:
		b = wire.AppendCommand(b, "GET", wire.Blob(t.keys[r.key]))
	case opSet:
		var vb [512]byte
		val := appendValue(vb[:0], t.w.valueSize, int(r.key), r.arg)
		b = wire.AppendCommand(b, "SET", wire.Blob(t.keys[r.key]), wire.Blob(val))
	case opIncr:
		b = wire.AppendCommand(b, "INCR", wire.Blob(t.ctrs[r.key]), one)
	case opTransfer:
		b = wire.AppendCommand(b, "TRANSFER", wire.Blob(t.accts[r.key]), wire.Blob(t.accts[r.key2]), one)
	}
	*scratch = b
	return wire.AppendFrame(dst, b)
}

// isRefusal reports whether a response is the server declining a request:
// an error or a retriable refusal. These count as failed, not as wrong.
func isRefusal(name string) bool {
	switch name {
	case "ERR", "BUSY", "DISKFULL", "READONLY":
		return true
	}
	return false
}

// check validates one answer against the model. It returns failed=true for
// a refusal and a non-nil error for an answer no correct server could give.
func (t *target) check(r *request, resp *wire.Command) (failed bool, err error) {
	if isRefusal(resp.Name) {
		t.noteRefusal(r, resp)
		return true, nil
	}
	switch r.kind {
	case opGet:
		if resp.Name != "VAL" || len(resp.Args) != 1 || !resp.Args[0].Blob {
			return false, fmt.Errorf("GET %s answered %q, want VAL (every key is preloaded)", t.keys[r.key], resp.Name)
		}
		v, err := parseValue(resp.Args[0].B, t.w.valueSize, int(r.key))
		if err != nil {
			return false, err
		}
		if r.exact && v != r.arg {
			return false, fmt.Errorf("GET %s returned version %d, want %d", t.keys[r.key], v, r.arg)
		}
		if v > t.m.ver[r.key] {
			return false, fmt.Errorf("GET %s returned version %d, never written (max %d)", t.keys[r.key], v, t.m.ver[r.key])
		}
	case opSet:
		if resp.Name != "OK" {
			return false, fmt.Errorf("SET answered %q", resp.Name)
		}
	case opIncr:
		n, err := intReply(resp)
		if err != nil {
			return false, err
		}
		if r.exact && n != r.arg || n < 1 || n > t.m.ctr[r.key] {
			return false, fmt.Errorf("INCR %s returned %d, want %d (max %d)", t.ctrs[r.key], n, r.arg, t.m.ctr[r.key])
		}
	case opTransfer:
		n, err := intReply(resp)
		if err != nil || n != 1 {
			return false, fmt.Errorf("TRANSFER answered %q, want :1 (balances never run low)", resp.Name)
		}
	}
	return false, nil
}

func intReply(resp *wire.Command) (int64, error) {
	if len(resp.Name) < 2 || resp.Name[0] != ':' {
		return 0, fmt.Errorf("answer %q, want :<int>", resp.Name)
	}
	return kv.ParseInt([]byte(resp.Name[1:]))
}

// connRun is one connection's share of a phase and what became of it.
type connRun struct {
	reqs   []request
	sentAt []atomic.Int64 // traced phases: ns from start to each request's write
	spans  *spanLog       // traced phases: request, gen.wait and server spans
	lat    []int64        // ns from due time to answer; missed when not answered OK
	late   []int64        // per wake-up: ns from the awaited due time to waking
	sent   int            // requests written
	acked  int            // answers read (OK or refused)
}

// phaseResult is one open-loop phase's outcome.
type phaseResult struct {
	rate, seconds float64
	runs          []*connRun
	lat           latencySummary // pooled over the whole phase
	window        float64        // seconds per window (0: whole phase)
	windows       []latencySummary
	p50us, p99us  float64 // lower quartiles over the windows of each window's p50 / p99
	lateP99us     float64
	attempted     int
	failed        int
	// headMeanUs and tailMeanUs are the mean latencies of the requests due
	// in the phase's first and last quarters; a tail well above the head
	// marks a growing backlog.
	headMeanUs, tailMeanUs float64
	broken                 bool // a connection failed; redial before the next phase
}

// phaseOpts are a phase's optional behaviours.
type phaseOpts struct {
	drain  time.Duration // wait for answers after the last due time
	killAt time.Duration // when positive, onKill runs this far into the phase
	onKill func()
	trace  bool // record spans for every request
	// window splits the phase by due time for the per-window percentiles
	// whose lower quartile the phase reports; 0 means one window.
	window float64
}

// runPhase drives one open-loop phase: each connection has a sender that
// writes every request once its due time has passed, never earlier, and an
// in-order reader that matches answers to requests.
func runPhase(conns []net.Conn, t *target, per [][]request, seconds float64, o phaseOpts) *phaseResult {
	res := &phaseResult{seconds: seconds, runs: make([]*connRun, len(conns)), window: o.window}
	// The generator's own garbage collection must not run inside a phase:
	// collect before it and pause the collector until it ends.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now().Add(2 * time.Millisecond)
	deadline := start.Add(time.Duration(seconds*1e9) + o.drain)
	var wg sync.WaitGroup
	var broken atomic.Bool
	for i, nc := range conns {
		cr := &connRun{reqs: per[i], lat: make([]int64, len(per[i]))}
		if o.trace {
			cr.sentAt = make([]atomic.Int64, len(per[i]))
			cr.spans = newSpanLog(fmt.Sprintf("live phase, connection %d: ns from phase start", i), uint64(i+1)<<40)
		}
		res.runs[i] = cr
		wg.Add(2)
		go func(nc net.Conn) {
			defer wg.Done()
			if !sendLoop(nc, t, cr, start) {
				broken.Store(true)
			}
		}(nc)
		go func(nc net.Conn) {
			defer wg.Done()
			if !readLoop(nc, t, cr, start, deadline) {
				broken.Store(true)
			}
		}(nc)
	}
	if o.killAt > 0 {
		time.Sleep(time.Until(start.Add(o.killAt)))
		o.onKill()
	}
	wg.Wait()
	return finishPhase(res, broken.Load())
}

func finishPhase(res *phaseResult, broken bool) *phaseResult {
	var all, late []int64
	var headN, tailN int
	var headSum, tailSum float64
	q1, q3 := int64(res.seconds*0.25*1e9), int64(res.seconds*0.75*1e9)
	for _, cr := range res.runs {
		all = append(all, cr.lat...)
		late = append(late, cr.late...)
		for j, r := range cr.reqs {
			switch {
			case r.due < q1:
				headN++
				headSum += float64(cr.lat[j])
			case r.due >= q3:
				tailN++
				tailSum += float64(cr.lat[j])
			}
		}
	}
	res.lat = summarize(all)
	res.windows, res.p50us, res.p99us = windowed(res.runs, res.seconds, res.window)
	res.attempted = len(all)
	res.failed = res.lat.Failed
	if len(late) > 0 {
		res.lateP99us = usOf(percentile(sortedCopy(late), 0.99))
	}
	if headN > 0 && tailN > 0 {
		res.headMeanUs = headSum / float64(headN) / 1e3
		res.tailMeanUs = tailSum / float64(tailN) / 1e3
	}
	if len(all) > 0 {
		res.rate = float64(len(all)) / res.seconds
	}
	res.broken = broken
	return res
}

// mergePhases combines blocks run at one rate: windows and samples pool,
// the reported percentiles are the lower quartiles over all the blocks'
// windows, and lateness is the median of the blocks' p99s.
func mergePhases(parts []*phaseResult) *phaseResult {
	res := &phaseResult{window: parts[0].window}
	var all []int64
	var p50s, p99s, lates []float64
	for _, p := range parts {
		res.seconds += p.seconds
		res.runs = append(res.runs, p.runs...)
		res.windows = append(res.windows, p.windows...)
		res.broken = res.broken || p.broken
		for _, cr := range p.runs {
			all = append(all, cr.lat...)
		}
		for _, w := range p.windows {
			p50s = append(p50s, w.P50us)
			p99s = append(p99s, w.P99us)
		}
		lates = append(lates, p.lateP99us)
	}
	res.lat = summarize(all)
	res.attempted = len(all)
	res.failed = res.lat.Failed
	res.rate = float64(len(all)) / res.seconds
	res.p50us, res.p99us = lowerQuartile(p50s), lowerQuartile(p99s)
	res.lateP99us = medianFloat(lates)
	return res
}

// windowed splits a phase's requests by due time into windows of w seconds
// and returns each window's latency summary plus the lower quartiles of the
// window p50s and p99s. On a shared host the hypervisor takes CPU away in
// bursts (up to half of it was stolen during these runs), and a burst only
// ever slows the windows it lands in; the lower quartile describes the
// program when the host lets it run, while the pooled summary keeps the
// whole tail for the record.
func windowed(runs []*connRun, seconds, w float64) ([]latencySummary, float64, float64) {
	n := 1
	if w > 0 {
		n = max(1, int(seconds/w+0.5))
	}
	parts := make([][]int64, n)
	for _, cr := range runs {
		for j, r := range cr.reqs {
			k := min(int(float64(r.due)/1e9/seconds*float64(n)), n-1)
			parts[k] = append(parts[k], cr.lat[j])
		}
	}
	sums := make([]latencySummary, 0, n)
	var p50s, p99s []float64
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		s := summarize(p)
		sums = append(sums, s)
		p50s = append(p50s, s.P50us)
		p99s = append(p99s, s.P99us)
	}
	return sums, lowerQuartile(p50s), lowerQuartile(p99s)
}

// minWake is the shortest interval between a sender's wake-ups. Waking for
// every request would cost the generator about as much CPU per request as
// the server spends serving it, on CPUs the two share; batching the
// requests that fall due within one interval halves that, and adds at most
// the interval to the latency of requests it holds back, which is counted
// because latency runs from the due time.
const minWake = 100 * time.Microsecond

// sendLoop writes cr's requests as their due times pass and leaves in
// cr.sent how many may have reached the server. It returns false when the
// connection failed.
func sendLoop(nc net.Conn, t *target, cr *connRun, start time.Time) bool {
	p := newPacer()
	defer p.close()
	var buf, scratch []byte
	i, n := 0, len(cr.reqs)
	cr.late = make([]int64, 0, n)
	lastWake := int64(0)
	for i < n {
		now := int64(time.Since(start))
		if due := cr.reqs[i].due; due > now {
			p.sleep(time.Duration(max(due, lastWake+int64(minWake)) - now))
			lastWake = int64(time.Since(start))
			// Lateness is the generator's own: how long after the due
			// time it woke. Time spent blocked in Write because the
			// server stopped reading is the server's, and shows in the
			// latency of every request it delays.
			cr.late = append(cr.late, lastWake-cr.reqs[i].due)
			continue
		}
		buf = buf[:0]
		first := i
		for i < n && cr.reqs[i].due <= now && len(buf) < 64<<10 {
			buf = t.appendRequest(buf, &scratch, &cr.reqs[i])
			i++
		}
		if cr.sentAt != nil {
			at := int64(time.Since(start))
			for j := first; j < i; j++ {
				cr.sentAt[j].Store(at)
			}
		}
		cr.sent = i
		if _, err := nc.Write(buf); err != nil {
			return false
		}
	}
	return true
}

// readLoop reads one answer per request in order. Requests left unanswered
// at the deadline, or when the connection fails, are marked missed.
func readLoop(nc net.Conn, t *target, cr *connRun, start, deadline time.Time) bool {
	_ = nc.SetReadDeadline(deadline)
	br := bufio.NewReaderSize(nc, 64<<10)
	var buf []byte
	var cmd wire.Command
	ok := true
	j := 0
	for ; j < len(cr.reqs); j++ {
		body, err := wire.ReadFrameInto(br, 0, buf)
		if err != nil {
			ok = false
			break
		}
		buf = body
		if err := wire.ParseCommandInto(body, &cmd); err != nil {
			t.violate(fmt.Errorf("unparseable answer: %w", err))
			ok = false
			break
		}
		now := int64(time.Since(start))
		failed, err := t.check(&cr.reqs[j], &cmd)
		if err != nil {
			t.violate(err)
		}
		if failed || err != nil {
			cr.lat[j] = missed
		} else {
			cr.lat[j] = now - cr.reqs[j].due
		}
		if cr.spans != nil && j < spanRequests {
			due, sent := cr.reqs[j].due, cr.sentAt[j].Load()
			id := cr.spans.add(0, "request."+opNames[cr.reqs[j].kind], due, now)
			cr.spans.add(id, "gen.wait", due, sent)
			cr.spans.add(id, "server", sent, now)
		}
	}
	cr.acked = j
	for ; j < len(cr.reqs); j++ {
		cr.lat[j] = missed
	}
	_ = nc.SetReadDeadline(time.Time{})
	return ok
}

// dialAll opens n connections to addr.
func dialAll(addr string, n int) ([]net.Conn, error) {
	conns := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, nc)
	}
	return conns, nil
}

func closeAll(conns []net.Conn) {
	for _, nc := range conns {
		nc.Close()
	}
}
