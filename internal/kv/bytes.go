package kv

import (
	"fmt"
	"strconv"

	"memtx/internal/engine"
)

// hashKey is FNV-1a 64 with a splitmix-style finalizer. The store slices the
// low 16 bits for the shard index and bits 16+ for the bucket index, so both
// ranges need well-mixed entropy.
func hashKey(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Packed bytes: one word holds the byte length, the words after it hold the
// payload in little-endian 8-byte chunks. A value record is packed bytes at
// word 0 of its own object; a node carries its key packed at word nodeKey.
// Both are written only while transaction-local and never mutated after
// publication, so readers load them without opening them (see engine.Txn).

// packedWords is the number of words b occupies when packed.
func packedWords(b []byte) int { return 1 + (len(b)+7)/8 }

// packBytes packs b into words at, at+1, … of the transaction-local object
// r. All stores are barrier-free (the object is private until commit).
func packBytes(raw engine.Txn, r engine.Handle, at int, b []byte) {
	raw.LogForUndoWord(r, at)
	raw.StoreWord(r, at, uint64(len(b)))
	for i := 0; i < len(b); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(b); j++ {
			w |= uint64(b[i+j]) << (8 * uint(j))
		}
		raw.LogForUndoWord(r, at+1+i/8)
		raw.StoreWord(r, at+1+i/8, w)
	}
}

// allocBytes packs b into a fresh transaction-local value record.
func allocBytes(raw engine.Txn, b []byte) engine.Handle {
	r := raw.Alloc(packedWords(b), 0)
	packBytes(raw, r, 0, b)
	return r
}

// readBytes unpacks the bytes packed at word at of r into a fresh slice.
func readBytes(raw engine.Txn, r engine.Handle, at int) []byte {
	n := int(raw.LoadWord(r, at))
	out := make([]byte, n)
	for i := 0; i < n; i += 8 {
		w := raw.LoadWord(r, at+1+i/8)
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = byte(w >> (8 * uint(j)))
		}
	}
	return out
}

// appendRecBlob appends a value record to dst in the wire blob form
// "$<len>:<bytes>" without any intermediate buffer: the length is read from
// word 0 first, so the prefix can be emitted before the payload words are
// decoded straight into dst.
func appendRecBlob(raw engine.Txn, dst []byte, r engine.Handle) []byte {
	n := int(raw.LoadWord(r, 0))
	dst = append(dst, '$')
	dst = strconv.AppendUint(dst, uint64(n), 10)
	dst = append(dst, ':')
	for i := 0; i < n; i += 8 {
		w := raw.LoadWord(r, 1+i/8)
		for j := 0; j < 8 && i+j < n; j++ {
			dst = append(dst, byte(w>>(8*uint(j))))
		}
	}
	return dst
}

// packedEqual compares the bytes packed at word at of r against b without
// unpacking into a slice.
func packedEqual(raw engine.Txn, r engine.Handle, at int, b []byte) bool {
	if int(raw.LoadWord(r, at)) != len(b) {
		return false
	}
	for i := 0; i < len(b); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(b); j++ {
			w |= uint64(b[i+j]) << (8 * uint(j))
		}
		if raw.LoadWord(r, at+1+i/8) != w {
			return false
		}
	}
	return true
}

// ParseInt parses a value as decimal text, the integer convention shared by
// Tx.Int/Add and the server's INCR and TRANSFER commands.
func ParseInt(b []byte) (int64, error) {
	v, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("kv: value %q is not an integer", b)
	}
	return v, nil
}

// FormatInt renders v in the decimal text convention.
func FormatInt(v int64) []byte {
	return strconv.AppendInt(nil, v, 10)
}
