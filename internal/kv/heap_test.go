package kv

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"memtx/internal/race"
)

// TestHeapPerKey bounds the live heap one stored key costs on the direct
// engine: 100k keys of 7 bytes with 64-byte values may hold at most 430
// bytes each. The bound fails if a key needs a third STM object beside its
// node and value record, or if committed bucket headers keep update-log
// slab chunks alive.
func TestHeapPerKey(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const keys = 100_000
	s := New(Config{})
	val := bytes.Repeat([]byte("v"), 64)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < keys; i++ {
		s.Set([]byte(fmt.Sprintf("k%06d", i)), val)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perKey := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / keys
	t.Logf("%d heap bytes per key", perKey)
	if perKey > 430 {
		t.Fatalf("each key holds %d heap bytes, want <= 430", perKey)
	}
	if n := s.Len(); n != keys {
		t.Fatalf("Len = %d, want %d", n, keys)
	}
}
