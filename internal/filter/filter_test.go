package filter

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDisabledFilterNeverHits(t *testing.T) {
	f := New(0)
	if f.Enabled() {
		t.Fatal("size-0 filter reports enabled")
	}
	for i := 0; i < 100; i++ {
		if f.Seen(1, 2) {
			t.Fatal("disabled filter reported a hit")
		}
	}
}

func TestSeenDetectsDuplicates(t *testing.T) {
	f := New(64)
	if f.Seen(10, 3) {
		t.Fatal("first Seen reported hit")
	}
	if !f.Seen(10, 3) {
		t.Fatal("second Seen missed duplicate")
	}
	if f.Seen(10, 4) {
		t.Fatal("different field reported hit")
	}
	if f.Seen(11, 3) {
		t.Fatal("different object reported hit")
	}
}

func TestResetInvalidatesAllKeys(t *testing.T) {
	f := New(64)
	for i := uint64(0); i < 32; i++ {
		f.Seen(i, 0)
	}
	f.Reset()
	for i := uint64(0); i < 32; i++ {
		if f.Seen(i, 0) {
			t.Fatalf("key %d survived Reset", i)
		}
	}
}

func TestSizeRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {100, 128}, {512, 512}, {513, 1024},
	} {
		if got := New(tc.in).Size(); got != tc.want {
			t.Errorf("New(%d).Size() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestNoFalsePositives is the filter's safety property: Seen must never
// report true for a key that was not recorded this epoch, regardless of
// collisions. (False negatives — forgetting a recorded key — are allowed.)
func TestNoFalsePositives(t *testing.T) {
	check := func(keys []uint32, probeObj, probeField uint32) bool {
		f := New(16) // tiny, to force collisions
		recorded := make(map[[2]uint64]bool)
		for _, k := range keys {
			obj, field := uint64(k>>16), uint64(k&0xFFFF)
			f.Seen(obj, field)
			recorded[[2]uint64{obj, field}] = true
		}
		key := [2]uint64{uint64(probeObj), uint64(probeField)}
		if !recorded[key] && f.Seen(key[0], key[1]) {
			return false // hit on a never-recorded key: impossible
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestHitImpliesRecorded drives random sequences through a filter and a
// reference map; any hit the filter reports must also be present in the map.
func TestHitImpliesRecorded(t *testing.T) {
	check := func(ops []uint16, resets []bool) bool {
		f := New(32)
		ref := make(map[uint64]bool)
		for i, op := range ops {
			if i < len(resets) && resets[i] {
				f.Reset()
				ref = make(map[uint64]bool)
			}
			obj, field := uint64(op>>8), uint64(op&0xFF)
			hit := f.Seen(obj, field)
			key := obj<<32 | field
			if hit && !ref[key] {
				return false
			}
			ref[key] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestGrowsOnDemand pins the growth policy: the table starts at
// initialSlots, doubles once recorded keys pass a quarter of it, stops at the
// configured capacity, and keeps its size across Reset. Size always reports
// the capacity.
func TestGrowsOnDemand(t *testing.T) {
	f := New(4096)
	if len(f.slots) != initialSlots || f.Size() != 4096 {
		t.Fatalf("New(4096): %d slots, Size %d; want %d slots, Size 4096", len(f.slots), f.Size(), initialSlots)
	}
	for i := uint64(0); i < initialSlots/4; i++ {
		f.Seen(i, 0)
	}
	if len(f.slots) != initialSlots {
		t.Fatalf("grew to %d slots at a quarter load, want %d", len(f.slots), initialSlots)
	}
	f.Seen(1000, 0)
	if len(f.slots) != 2*initialSlots {
		t.Fatalf("%d slots after passing a quarter load, want %d", len(f.slots), 2*initialSlots)
	}
	for i := uint64(0); i < 10000; i++ {
		f.Seen(i, 1)
	}
	if len(f.slots) != 4096 {
		t.Fatalf("%d slots after 10000 keys, want the 4096 capacity", len(f.slots))
	}
	f.Reset()
	if len(f.slots) != 4096 || f.Size() != 4096 {
		t.Fatalf("Reset changed the table: %d slots, Size %d", len(f.slots), f.Size())
	}
	if g := New(16); len(g.slots) != 16 {
		t.Fatalf("New(16) allocated %d slots, want 16", len(g.slots))
	}
}

// TestNoFalsePositivesAcrossGrowth is TestNoFalsePositives for a filter that
// grows from initialSlots to 1024 slots while the keys are recorded.
func TestNoFalsePositivesAcrossGrowth(t *testing.T) {
	check := func(keys []uint16, probes []uint16) bool {
		f := New(1024)
		recorded := make(map[uint64]bool)
		for round := 0; round < 4; round++ { // repeat so growth happens mid-sequence
			for _, k := range keys {
				key := uint64(k) + uint64(round)<<16
				f.Seen(key>>4, key&15)
				recorded[key] = true
			}
		}
		for _, p := range probes {
			key := uint64(p) | 1<<20 // outside every key recorded above
			if f.Seen(key>>4, key&15) && !recorded[key] {
				return false
			}
			recorded[key] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestGrowthKeepsLiveKeys checks that growing never drops a key: every key
// held in the table just before a growth is still held (and still hits)
// after it, and keys from earlier epochs are not carried over.
func TestGrowthKeepsLiveKeys(t *testing.T) {
	held := func(f *Filter) map[[2]uint64]bool {
		out := make(map[[2]uint64]bool)
		for _, s := range f.slots {
			if s.epoch == f.epoch {
				out[[2]uint64{s.obj, s.field}] = true
			}
		}
		return out
	}
	check := func(keys []uint32, resetAt uint8) bool {
		f := New(4096)
		for i, k := range keys {
			if i == int(resetAt) {
				f.Reset()
			}
			obj, field := uint64(k>>8), uint64(k&0xFF)
			size := len(f.slots)
			if f.n+1 <= size/4 || size == f.size {
				f.Seen(obj, field) // cannot grow the table
				continue
			}
			// want is what the table holds once this key is recorded: the
			// key replaces whatever held its slot.
			want := held(f)
			if s := f.slots[hash(obj, field)&f.mask]; s.epoch == f.epoch {
				delete(want, [2]uint64{s.obj, s.field})
			}
			want[[2]uint64{obj, field}] = true
			f.Seen(obj, field)
			if len(f.slots) == size {
				continue
			}
			got := held(f)
			if len(got) != len(want) {
				return false
			}
			for key := range want {
				if !got[key] || !f.Seen(key[0], key[1]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Values: func(v []reflect.Value, r *rand.Rand) {
		keys := make([]uint32, r.Intn(2000))
		for i := range keys {
			keys[i] = r.Uint32()
		}
		v[0] = reflect.ValueOf(keys)
		v[1] = reflect.ValueOf(uint8(r.Intn(256)))
	}}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSeen(b *testing.B) {
	f := New(512)
	for i := 0; i < b.N; i++ {
		f.Seen(uint64(i&1023), uint64(i&7))
	}
}
