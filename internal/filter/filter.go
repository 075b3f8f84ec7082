// Package filter implements the paper's runtime log filter: a small,
// per-transaction probabilistic hash table that suppresses duplicate log
// entries which the compiler could not eliminate statically.
//
// The filter maps (object id, field slot) pairs to the epoch in which they
// were last logged. A lookup that hits the current epoch means "already
// logged in this transaction — skip". Collisions simply overwrite the slot,
// so the filter can forget entries; forgetting is safe (the entry is logged
// again, wasting only space), whereas a false "already logged" answer is
// impossible because both the key and the epoch must match exactly.
//
// Resetting between transactions is O(1): the epoch is bumped, invalidating
// every slot at once.
//
// The table starts at initialSlots and doubles whenever the keys recorded in
// the current epoch pass a quarter of it, up to the configured capacity, so a
// transaction that logs a handful of keys never pays for the full table.
// Evictions count as recorded keys: a working set that thrashes a small
// table grows it. Growing rehashes the current epoch's keys into the larger
// table; doubling maps distinct slots to distinct slots, so no recorded key
// is lost.
package filter

// Filter is a bounded-capacity duplicate-log filter. The zero value is a
// disabled filter (every Seen call reports false). It is not safe for
// concurrent use; each transaction context owns one.
type Filter struct {
	slots []slot
	mask  uint64
	epoch uint64
	size  int // configured capacity in slots; the table grows up to it
	n     int // keys recorded this epoch, evictions included
}

type slot struct {
	obj   uint64 // object id
	field uint64 // encoded field slot
	epoch uint64 // epoch at which this key was recorded
}

// initialSlots is the table a new filter starts with (1.5 KiB).
const initialSlots = 64

// New returns a filter whose capacity is size slots, rounded up to a power
// of two. size <= 0 returns a disabled filter.
func New(size int) *Filter {
	f := &Filter{}
	if size <= 0 {
		return f
	}
	n := 1
	for n < size {
		n <<= 1
	}
	f.size = n
	f.epoch = 1
	f.slots = make([]slot, min(n, initialSlots))
	f.mask = uint64(len(f.slots) - 1)
	return f
}

// Enabled reports whether the filter has capacity.
func (f *Filter) Enabled() bool { return f.size != 0 }

// Size returns the configured capacity in slots; the table in use may be
// smaller until the filter has grown.
func (f *Filter) Size() int { return f.size }

// Reset prepares the filter for a new transaction. All previously recorded
// keys become stale in O(1); the table keeps its grown size.
func (f *Filter) Reset() {
	f.epoch++
	f.n = 0
}

// Seen records the key (obj, field) and reports whether it was already
// recorded during the current transaction. A false result may be returned
// for a key that was recorded but then evicted by a colliding key; callers
// must treat false as "log it (again)".
func (f *Filter) Seen(obj, field uint64) bool {
	if f.size == 0 {
		return false
	}
	s := &f.slots[hash(obj, field)&f.mask]
	if s.epoch == f.epoch && s.obj == obj && s.field == field {
		return true
	}
	s.obj, s.field, s.epoch = obj, field, f.epoch
	if f.n++; f.n > len(f.slots)/4 && len(f.slots) < f.size {
		f.grow()
	}
	return false
}

// grow doubles the table and rehashes the current epoch's keys into it.
func (f *Filter) grow() {
	old := f.slots
	f.slots = make([]slot, 2*len(old))
	f.mask = uint64(len(f.slots) - 1)
	f.n = 0
	for _, s := range old {
		if s.epoch == f.epoch {
			f.slots[hash(s.obj, s.field)&f.mask] = s
			f.n++
		}
	}
}

// hash mixes the object id and field slot. Fibonacci hashing on the combined
// key gives good dispersion for the sequential ids the engines hand out.
func hash(obj, field uint64) uint64 {
	x := obj*0x9E3779B97F4A7C15 ^ (field+1)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x
}
