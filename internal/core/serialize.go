package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Appender is an optional fast path on RedObj for the serialization hot
// path: AppendBinary appends exactly the bytes MarshalBinary would return to
// b and returns the extended slice. With it, the runtime serializes a whole
// combination map into one pooled buffer without a per-object allocation —
// the Section 5.3 serialization tax shrinks to the framing itself.
// Implementations must keep AppendBinary and MarshalBinary byte-identical;
// the analytics test suite pins this for every shipped reduction object.
type Appender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// encBufPool recycles serialization buffers across checkpoint writes and
// global-combination rounds. Both transports copy payloads out during Send,
// so a buffer may be returned to the pool as soon as the send or file write
// that used it completes.
var encBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getEncBuf draws a zero-length buffer from the pool; reused reports whether
// it carries capacity from a previous round (the pooled-buffer reuse signal
// surfaced via smart_core_enc_buf_reuse_total).
func getEncBuf() (buf *[]byte, reused bool) {
	buf = encBufPool.Get().(*[]byte)
	reused = cap(*buf) > 0
	*buf = (*buf)[:0]
	return buf, reused
}

// maxPooledEncBuf caps the capacity putEncBuf will retain. One outlier round
// (a huge checkpoint, a skewed shard) would otherwise park its buffer in the
// pool forever, ratcheting the process's floor memory up to the largest
// serialization it ever performed.
const maxPooledEncBuf = 1 << 20

// putEncBuf returns a buffer to the pool, discarding oversized ones so the
// pool's resident capacity stays bounded by typical — not peak — rounds.
func putEncBuf(buf *[]byte) {
	if cap(*buf) > maxPooledEncBuf {
		return
	}
	encBufPool.Put(buf)
}

// appendObj appends one reduction object's key | len | payload frame,
// preferring the Appender fast path over MarshalBinary.
func appendObj(buf []byte, k int, obj RedObj) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(k)))
	if ap, ok := obj.(Appender); ok {
		// Reserve the length word, append in place, then patch it — one
		// buffer, no per-object allocation.
		lenOff := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		out, err := ap.AppendBinary(buf)
		if err != nil {
			return nil, fmt.Errorf("core: marshal reduction object for key %d: %w", k, err)
		}
		binary.LittleEndian.PutUint32(out[lenOff:], uint32(len(out)-lenOff-4))
		return out, nil
	}
	payload, err := obj.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: marshal reduction object for key %d: %w", k, err)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...), nil
}

// storeEntry pairs a key with its live object while an encode re-sorts a
// store's contents into canonical ascending-key order.
type storeEntry struct {
	k   int
	obj RedObj
}

// radixBits is the digit width of sortEntries: 2^11 counters stay in L1,
// and the 18-bit key span of a 262,144-key grid takes two passes.
const radixBits = 11

// sortEntries sorts entries by ascending key in O(n) with an LSD radix sort
// over each key's offset from the smallest, uint64(k) − uint64(min), which
// orders exactly like k across the whole int64 range. The pass count
// follows the key span: ⌈bits(max − min)/11⌉, two for a 262,144-key grid
// and at most six for any key set.
func sortEntries(ents []storeEntry) {
	if len(ents) < 2 {
		return
	}
	lo, hi := ents[0].k, ents[0].k
	for _, e := range ents[1:] {
		lo, hi = min(lo, e.k), max(hi, e.k)
	}
	width := bits.Len64(uint64(hi) - uint64(lo))
	if width == 0 {
		return
	}
	src, dst := ents, make([]storeEntry, len(ents))
	var count [1 << radixBits]int
	for shift := 0; shift < width; shift += radixBits {
		digit := func(k int) uint64 { return (uint64(k) - uint64(lo)) >> shift & (1<<radixBits - 1) }
		clear(count[:])
		for _, e := range src {
			count[digit(e.k)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, e := range src {
			d := digit(e.k)
			dst[count[d]] = e
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ents[0] {
		copy(ents, src)
	}
}

// appendEntriesSorted sorts the collected entries by key and appends the
// count | (key, len, payload)* frame. The output grows once: every entry of
// a FixedSizeObj store is as long as the first, so after the first entry
// the rest of the frame is reserved in one step.
func appendEntriesSorted(buf []byte, ents []storeEntry) ([]byte, error) {
	sortEntries(ents)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ents)))
	var err error
	for i, e := range ents {
		start := len(buf)
		if buf, err = appendObj(buf, e.k, e.obj); err != nil {
			return nil, err
		}
		if i == 0 {
			if _, fixed := e.obj.(FixedSizeObj); fixed {
				buf = slices.Grow(buf, (len(ents)-1)*(len(buf)-start))
			}
		}
	}
	return buf, nil
}

// appendStore serializes a reduction store as one map frame,
// count | (key, len, payload)* with little-endian fixed-width framing,
// appending to buf. This is the serialization the paper charges to global
// combination — the price of keeping reduction objects in a flexible map
// rather than the contiguous arrays of a hand-written MPI_Allreduce
// (Section 5.3). Every live key across every shard is radix-sorted into one
// ascending sequence, so the wire and checkpoint byte format is independent
// of shard count and insertion order: checkpoints of the same state
// round-trip bit-for-bit and global-combination payloads are reproducible
// across runs. It only reads the store through forEachIn (no lookups, no
// counter writes), so it is safe to run concurrently with other readers —
// the checkpoint writer depends on this.
func appendStore(buf []byte, st *arenaStore) ([]byte, error) {
	ents := make([]storeEntry, 0, st.size())
	for si := 0; si < st.numShards(); si++ {
		st.forEachIn(si, func(k int, obj RedObj) {
			ents = append(ents, storeEntry{k, obj})
		})
	}
	return appendEntriesSorted(buf, ents)
}

// appendShardOf serializes one shard of a reduction store as a standalone
// map frame (the global-combination streamed segments). Keys within a
// shard are written in ascending order, so the per-shard payload bytes are
// canonical too.
func appendShardOf(buf []byte, st *arenaStore, si int) ([]byte, error) {
	ents := make([]storeEntry, 0, st.shardLen(si))
	st.forEachIn(si, func(k int, obj RedObj) {
		ents = append(ents, storeEntry{k, obj})
	})
	return appendEntriesSorted(buf, ents)
}

// decodeStore reverses appendStore into a new store of nshards shards. A
// first pass over the entry headers validates the framing and counts each
// shard's entries, so a corrupt frame allocates nothing for its claimed
// size and a valid one sizes every shard once (reserve); the second pass
// unmarshals each payload into a fresh object — carved from the shard's one
// slab for FixedSizeObj applications. It returns no store for a corrupt
// frame, so callers swap in or merge from only a fully decoded one.
func decodeStore(buf []byte, nshards int, factory func() RedObj) (*arenaStore, error) {
	counts := make([]int, nshards)
	if err := walkEntries(buf, func(k int, _ []byte) error {
		counts[shardIndex(k, nshards)]++
		return nil
	}); err != nil {
		return nil, err
	}
	st := newArenaStore(nshards, factory)
	st.reserve(counts)
	if err := walkEntries(buf, func(k int, payload []byte) error {
		obj := st.fresh(st.shardOf(k))
		if err := obj.UnmarshalBinary(payload); err != nil {
			return fmt.Errorf("core: unmarshal reduction object for key %d: %w", k, err)
		}
		st.insert(k, obj)
		return nil
	}); err != nil {
		return nil, err
	}
	return st, nil
}

// walkEntries streams a map frame entry by entry without
// materializing anything: sink receives each key and its raw payload (a
// sub-slice of buf, valid only during the call). The global-combination
// paths build on this to unmarshal payloads into already-live objects —
// merge scratch and broadcast updates — instead of allocating a fresh object
// per entry.
func walkEntries(buf []byte, sink func(k int, payload []byte) error) error {
	if len(buf) < 4 {
		return fmt.Errorf("core: truncated map header")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	// Every entry needs at least its 12-byte header; a count beyond that is
	// a corrupt frame, and trusting it would blow the heap.
	if n < 0 || n > len(buf)/12 {
		return fmt.Errorf("core: implausible map entry count %d for %d bytes", n, len(buf))
	}
	for i := 0; i < n; i++ {
		if len(buf) < 12 {
			return fmt.Errorf("core: truncated entry header %d", i)
		}
		k := int(int64(binary.LittleEndian.Uint64(buf)))
		l := int(binary.LittleEndian.Uint32(buf[8:]))
		buf = buf[12:]
		if len(buf) < l {
			return fmt.Errorf("core: truncated entry payload %d", i)
		}
		if err := sink(k, buf[:l:l]); err != nil {
			return err
		}
		buf = buf[l:]
	}
	if len(buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes after map", len(buf))
	}
	return nil
}
