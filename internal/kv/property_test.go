package kv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"memtx"
	"memtx/internal/chaos"
)

// kvChaosConfig injects aborts, delays, and panics at every STM point a kv
// transaction crosses. CommitValidate faults strike mid-2PC: between a
// cross-shard transaction's prepare (validate-all) and publish phases,
// exactly where a torn commit or a leaked shard gate would be minted if the
// protocol mishandled the unwind.
func kvChaosConfig(seed uint64) chaos.Config {
	cfg := chaos.Config{Seed: seed}
	for _, p := range []chaos.Point{chaos.OpenForRead, chaos.OpenForUpdate, chaos.CommitValidate, chaos.CMWait} {
		cfg.Points[p] = chaos.PointConfig{
			AbortPPM: 20_000,
			DelayPPM: 5_000,
			PanicPPM: 2_000,
			MaxDelay: 50 * time.Microsecond,
		}
	}
	cfg.Points[chaos.WriteBack] = chaos.PointConfig{DelayPPM: 10_000, MaxDelay: 50 * time.Microsecond}
	return cfg
}

// call runs op, translating an injected chaos panic into a retriable
// failure (ok=false). Any other panic propagates: a protocol-violation
// panic from the 2PC path must fail the test, not be swallowed.
func call(op func() error) (err error, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, injected := r.(*chaos.InjectedPanic); injected {
				err, ok = nil, false
				return
			}
			panic(r)
		}
	}()
	return op(), true
}

// checkQuiescent asserts the post-storm invariants shared by the property
// tests: no shard gate left locked, and every started transaction resolved
// (Starts == Commits + Aborts) on every shard.
func checkQuiescent(t *testing.T, s *Store) {
	t.Helper()
	for i := range s.shards {
		if !s.shards[i].xmu.TryLock() {
			t.Errorf("shard %d gate left locked after the storm", i)
			continue
		}
		s.shards[i].xmu.Unlock()
	}
	for i := 0; i < s.Shards(); i++ {
		st := s.ShardStats(i)
		if st.Starts != st.Commits+st.Aborts {
			t.Errorf("shard %d leaked a transaction: Starts %d != Commits %d + Aborts %d",
				i, st.Starts, st.Commits, st.Aborts)
		}
	}
}

// TestCrossShardSumConservation is the 2PC money-conservation property:
// randomized cross-shard transfers under seeded chaos — aborts and panics
// injected mid-prepare and at commit entry — must never create or destroy
// value, leak a shard gate, or strand a transaction.
func TestCrossShardSumConservation(t *testing.T) {
	const seed = 7
	t.Logf("chaos seed %d", seed)

	designs(t, func(t *testing.T, s *Store) {
		// Enable chaos only after the store exists: kv.New's init
		// transaction is not a fault target, and an injected panic
		// there would escape the call() recovery wrappers below.
		chaos.Enable(chaos.New(kvChaosConfig(seed)))
		defer chaos.Disable()
		const accounts = 16
		const initial = 1000
		const workers = 4
		iters := 300
		if testing.Short() {
			iters = 75
		}
		for i := 0; i < accounts; i++ {
			for {
				if _, ok := call(func() error {
					return s.AtomicKey(acct(i), func(tx *Tx) error {
						tx.SetInt(acct(i), initial)
						return nil
					})
				}); ok {
					break
				}
			}
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				r := seed*2654435761 + 1
				next := func(n int) int {
					r = r*6364136223846793005 + 1442695040888963407
					return int((r >> 33) % uint64(n))
				}
				for i := 0; i < iters; i++ {
					src, dst := next(accounts), next(accounts)
					if src == dst {
						continue
					}
					amount := int64(next(20))
					keys := [][]byte{acct(src), acct(dst)}
					err, ok := call(func() error {
						return s.AtomicKeys(keys, func(tx *Tx) error {
							sv, err := tx.Int(acct(src))
							if err != nil {
								return err
							}
							if sv < amount {
								return nil
							}
							tx.SetInt(acct(src), sv-amount)
							dv, err := tx.Int(acct(dst))
							if err != nil {
								return err
							}
							tx.SetInt(acct(dst), dv+amount)
							return nil
						})
					})
					if !ok {
						i-- // injected panic: the transfer did not run; retry it
						continue
					}
					if err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}(uint64(w) + 1)
		}
		wg.Wait()

		var total int64
		for {
			_, ok := call(func() error {
				return s.View(func(tx *Tx) error {
					total = 0
					for i := 0; i < accounts; i++ {
						v, err := tx.Int(acct(i))
						if err != nil {
							return err
						}
						total += v
					}
					return nil
				})
			})
			if ok {
				break
			}
		}
		if total != accounts*initial {
			t.Errorf("sum not conserved under chaos: total = %d, want %d", total, accounts*initial)
		}
		checkQuiescent(t, s)
	})
}

// TestNoTornMSet checks cross-shard write atomicity from the reader's seat:
// writers repeatedly MSET one generation tag across a shard-spanning key
// set while readers MGET the same keys; a reader observing two different
// tags in one snapshot has caught a torn multi-shard publish.
func TestNoTornMSet(t *testing.T) {
	const seed = 11
	t.Logf("chaos seed %d", seed)

	designs(t, func(t *testing.T, s *Store) {
		// Chaos goes live only after construction; see
		// TestCrossShardSumConservation.
		chaos.Enable(chaos.New(kvChaosConfig(seed)))
		defer chaos.Disable()
		// One key per shard: every MSET is maximally cross-shard.
		keys := make([][]byte, s.Shards())
		for i := range keys {
			keys[i] = keyOn(t, s, i, 0)
		}
		write := func(gen int64) (error, bool) {
			return call(func() error {
				return s.AtomicKeys(keys, func(tx *Tx) error {
					for _, k := range keys {
						tx.SetInt(k, gen)
					}
					return nil
				})
			})
		}
		for {
			if _, ok := write(0); ok {
				break
			}
		}

		iters := 200
		if testing.Short() {
			iters = 50
		}
		stop := make(chan struct{})
		var writers, watchers sync.WaitGroup
		// Writers: two generation streams (odd/even) so concurrent MSETs
		// genuinely race each other, not just the readers.
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := 0; i < iters; i++ {
					gen := int64(i*2 + w + 1)
					if _, ok := write(gen); !ok {
						i--
					}
				}
			}(w)
		}
		// Interfering single-shard writers on unrelated keys: they share
		// shard gates with the cross-shard publish but must never tear it.
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keyOn(t, s, i%s.Shards(), 1)
				_, _ = call(func() error { return s.AtomicKey(k, func(tx *Tx) error { tx.SetInt(k, int64(i)); return nil }) })
				i++
			}
		}()
		// Readers: every snapshot must be generation-uniform.
		for r := 0; r < 2; r++ {
			watchers.Add(1)
			go func() {
				defer watchers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var gens []int64
					err, ok := call(func() error {
						return s.Run(nil, Req{Keys: keys, ReadOnly: true}, func(tx *Tx) error {
							gens = gens[:0]
							for _, k := range keys {
								v, err := tx.Int(k)
								if err != nil {
									return err
								}
								gens = append(gens, v)
							}
							return nil
						})
					})
					if !ok {
						continue
					}
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					for _, g := range gens[1:] {
						if g != gens[0] {
							t.Errorf("torn MSET observed: generations %v in one snapshot", gens)
							return
						}
					}
				}
			}()
		}

		writers.Wait()
		close(stop)
		watchers.Wait()
		checkQuiescent(t, s)
	})
}

// TestDeadlockCanary hammers reversed-order cross-shard transfer pairs —
// worker A moves a→b while worker B moves b→a — under a wall-clock
// watchdog. If the 2PC path acquired shard gates in key order instead of
// ascending shard order, this wedges within a handful of iterations.
func TestDeadlockCanary(t *testing.T) {
	designs(t, func(t *testing.T, s *Store) {
		a := keyOn(t, s, 0, 0)
		b := keyOn(t, s, s.Shards()-1, 0)
		s.Set(a, FormatInt(1000))
		s.Set(b, FormatInt(1000))

		iters := 2000
		if testing.Short() {
			iters = 400
		}
		transfer := func(src, dst []byte) error {
			return s.AtomicKeys([][]byte{src, dst}, func(tx *Tx) error {
				sv, err := tx.Int(src)
				if err != nil {
					return err
				}
				if sv <= 0 {
					return nil
				}
				tx.SetInt(src, sv-1)
				dv, err := tx.Int(dst)
				if err != nil {
					return err
				}
				tx.SetInt(dst, dv+1)
				return nil
			})
		}
		done := make(chan error, 2)
		go func() {
			for i := 0; i < iters; i++ {
				if err := transfer(a, b); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		go func() {
			for i := 0; i < iters; i++ {
				if err := transfer(b, a); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		watchdog := time.After(60 * time.Second)
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("transfer: %v", err)
				}
			case <-watchdog:
				t.Fatal("reversed-order transfer pairs deadlocked (watchdog fired after 60s)")
			}
		}
		var av, bv int64
		err := s.Run(nil, Req{Keys: [][]byte{a, b}, ReadOnly: true}, func(tx *Tx) error {
			var err error
			if av, err = tx.Int(a); err != nil {
				return err
			}
			bv, err = tx.Int(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if av+bv != 2000 {
			t.Fatalf("sum not conserved: %d + %d != 2000", av, bv)
		}
		checkQuiescent(t, s)
	})
}

// TestChaosMSetVisibility is the durability face of no-torn-writes: after
// the storm, the key set holds exactly the bytes of some single committed
// MSET, not a mixture.
func TestChaosMSetVisibility(t *testing.T) {
	const seed = 23
	s := New(Config{Shards: 8, Buckets: 8, Design: memtx.DirectUpdate})
	chaos.Enable(chaos.New(kvChaosConfig(seed)))
	defer chaos.Disable()
	keys := make([][]byte, s.Shards())
	for i := range keys {
		keys[i] = keyOn(t, s, i, 0)
	}
	iters := 150
	if testing.Short() {
		iters = 40
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				val := []byte(fmt.Sprintf("g%d-%d", w, i))
				_, ok := call(func() error {
					return s.AtomicKeys(keys, func(tx *Tx) error {
						for _, k := range keys {
							tx.Set(k, val)
						}
						return nil
					})
				})
				if !ok {
					i--
				}
			}
		}(w)
	}
	wg.Wait()
	chaos.Disable()

	var vals [][]byte
	err := s.Run(nil, Req{Keys: keys, ReadOnly: true}, func(tx *Tx) error {
		vals = vals[:0]
		for _, k := range keys {
			v, ok := tx.Get(k)
			if !ok {
				return fmt.Errorf("key %q missing after storm", k)
			}
			vals = append(vals, append([]byte(nil), v...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals[1:] {
		if !bytes.Equal(v, vals[0]) {
			t.Fatalf("mixed MSET generations survived the storm: %q vs %q", vals[0], v)
		}
	}
	checkQuiescent(t, s)
}
