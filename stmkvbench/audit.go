package main

import (
	"fmt"

	"memtx/internal/kv"
	"memtx/internal/kvload"
	"memtx/internal/server/wire"
)

// chunk is how many keys one preload MSET or audit MGET carries.
const chunk = 256

// preload writes version 0 of every key, zero to every counter and the
// initial balance to every account, pipelining MSETs over one connection.
func preload(addr string, t *target) error {
	c, err := kvload.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var args []wire.Arg
	pending := 0
	flushSome := func(keep int) error {
		if err := c.Flush(); err != nil {
			return err
		}
		for ; pending > keep; pending-- {
			if resp, err := c.Recv(); err != nil || resp.Name != "OK" {
				return fmt.Errorf("preload MSET answered %q: %v", resp.Name, err)
			}
		}
		return nil
	}
	send := func(key, val []byte) error {
		args = append(args, wire.Blob(key), wire.Blob(val))
		if len(args) < 2*chunk {
			return nil
		}
		return sendArgs(c, &args, &pending, flushSome)
	}
	for i, k := range t.keys {
		if err := send(k, appendValue(nil, t.w.valueSize, i, 0)); err != nil {
			return err
		}
	}
	for _, k := range t.ctrs {
		if err := send(k, []byte("0")); err != nil {
			return err
		}
	}
	for _, k := range t.accts {
		if err := send(k, kv.FormatInt(initialBalance)); err != nil {
			return err
		}
	}
	if len(args) > 0 {
		if err := sendArgs(c, &args, &pending, flushSome); err != nil {
			return err
		}
	}
	return flushSome(0)
}

func sendArgs(c *kvload.Client, args *[]wire.Arg, pending *int, flushSome func(int) error) error {
	if err := c.Send("MSET", *args...); err != nil {
		return err
	}
	*args = (*args)[:0]
	*pending++
	if *pending >= 16 {
		return flushSome(8)
	}
	return nil
}

// readAll reads every key in names with chunked MGETs; a missing key is an
// error, since the preload wrote them all.
func readAll(c *kvload.Client, names [][]byte) ([][]byte, error) {
	out := make([][]byte, 0, len(names))
	for i := 0; i < len(names); i += chunk {
		end := min(i+chunk, len(names))
		vals, err := c.MGet(names[i:end]...)
		if err != nil {
			return nil, err
		}
		for j, v := range vals {
			if v == nil {
				return nil, fmt.Errorf("key %s missing", names[i+j])
			}
			out = append(out, append([]byte(nil), v...))
		}
	}
	return out, nil
}

func readInts(c *kvload.Client, names [][]byte) ([]int64, error) {
	vals, err := readAll(c, names)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(vals))
	for i, v := range vals {
		if out[i], err = kv.ParseInt(v); err != nil {
			return nil, fmt.Errorf("key %s holds %q: %w", names[i], v, err)
		}
	}
	return out, nil
}

// bounds is, per key, the range of values a correct server may hold.
type bounds struct{ lo, hi []int64 }

func exactBounds(xs []int64) bounds { return bounds{lo: xs, hi: xs} }

// audit reads back every counter and account (and, with keys set, every
// key's version) and checks them against the bounds. The account total is
// checked exactly: every TRANSFER moves one unit atomically.
func audit(addr string, t *target, ver, ctr, bal bounds, keys bool) error {
	c, err := kvload.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if len(t.accts) > 0 {
		got, err := readInts(c, t.accts)
		if err != nil {
			return err
		}
		var sum int64
		for i, b := range got {
			sum += b
			if b < bal.lo[i] || b > bal.hi[i] {
				return fmt.Errorf("account %s holds %d, want %d..%d", t.accts[i], b, bal.lo[i], bal.hi[i])
			}
		}
		if want := int64(len(got)) * initialBalance; sum != want {
			return fmt.Errorf("account sum %d, want %d", sum, want)
		}
	}
	if len(t.ctrs) > 0 {
		got, err := readInts(c, t.ctrs)
		if err != nil {
			return err
		}
		for i, n := range got {
			if n < ctr.lo[i] || n > ctr.hi[i] {
				return fmt.Errorf("counter %s holds %d, want %d..%d", t.ctrs[i], n, ctr.lo[i], ctr.hi[i])
			}
		}
	}
	if keys {
		got, err := readAll(c, t.keys)
		if err != nil {
			return err
		}
		for i, v := range got {
			n, err := parseValue(v, t.w.valueSize, i)
			if err != nil {
				return err
			}
			if n < ver.lo[i] || n > ver.hi[i] {
				return fmt.Errorf("key %s holds version %d, want %d..%d", t.keys[i], n, ver.lo[i], ver.hi[i])
			}
		}
	}
	return nil
}

// phaseBounds is what a phase leaves. When every request was answered OK
// each counter and account sits exactly at the model: INCRs and TRANSFERs
// commute, so connection interleaving cannot matter. After failures only
// the account total is fixed.
func phaseBounds(m *model, allOK bool) (ctr, bal bounds) {
	if allOK {
		return exactBounds(m.ctr), exactBounds(m.bal)
	}
	ctr = bounds{lo: make([]int64, len(m.ctr)), hi: m.ctr}
	bal = bounds{lo: make([]int64, len(m.bal)), hi: make([]int64, len(m.bal))}
	for i := range bal.hi {
		bal.hi[i] = initialBalance * int64(len(m.bal))
	}
	return ctr, bal
}

// crashBounds is what a correct server may hold after a crash during the
// phase whose connection runs are given: every acknowledged write, plus any
// subset of the writes sent but not acknowledged. before is the model state
// the phase started from (all of it acknowledged).
func crashBounds(before *model, runs []*connRun) (ver, ctr, bal bounds) {
	ver = bounds{lo: append([]int64(nil), before.ver...), hi: append([]int64(nil), before.ver...)}
	ctr = bounds{lo: append([]int64(nil), before.ctr...), hi: append([]int64(nil), before.ctr...)}
	bal = bounds{lo: append([]int64(nil), before.bal...), hi: append([]int64(nil), before.bal...)}
	for _, cr := range runs {
		for j := 0; j < cr.sent; j++ {
			r := &cr.reqs[j]
			acked := j < cr.acked && cr.lat[j] < missed
			switch r.kind {
			case opSet:
				if acked {
					ver.lo[r.key] = r.arg
				}
				ver.hi[r.key] = r.arg
			case opIncr:
				if acked {
					ctr.lo[r.key]++
				}
				ctr.hi[r.key]++
			case opTransfer:
				if acked {
					bal.lo[r.key]--
					bal.hi[r.key]--
					bal.lo[r.key2]++
					bal.hi[r.key2]++
				} else {
					bal.lo[r.key]--
					bal.hi[r.key2]++
				}
			}
		}
	}
	return ver, ctr, bal
}

// snapshot copies the model's state.
func (m *model) snapshot() *model {
	c := *m
	c.ver = append([]int64(nil), m.ver...)
	c.ctr = append([]int64(nil), m.ctr...)
	c.bal = append([]int64(nil), m.bal...)
	return &c
}
