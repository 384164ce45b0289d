package core

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// checkSortEntries sorts entries built from keys (each paired with an object
// naming its input position) and requires the order a stable comparison
// sort gives. Store keys are unique; the radix sort is also stable, so
// repeated keys keep their input order.
func checkSortEntries(t testing.TB, keys []int) {
	t.Helper()
	ents := make([]storeEntry, len(keys))
	for i, k := range keys {
		ents[i] = storeEntry{k, &countObj{n: int64(i)}}
	}
	want := slices.Clone(ents)
	slices.SortStableFunc(want, func(a, b storeEntry) int { return cmp.Compare(a.k, b.k) })
	sortEntries(ents)
	for i := range want {
		if ents[i] != want[i] {
			t.Fatalf("position %d: got key %d (input %d), want key %d (input %d)",
				i, ents[i].k, ents[i].obj.(*countObj).n, want[i].k, want[i].obj.(*countObj).n)
		}
	}
}

// TestSortEntriesOrder checks the radix order against a comparison sort at
// the edges of the int64 range, on dense runs, on sparse keys, and on random
// key sets whose spans need from one to all six 11-bit passes.
func TestSortEntriesOrder(t *testing.T) {
	dense := func(lo, n int) []int {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = lo + n - 1 - i
		}
		return keys
	}
	for name, keys := range map[string][]int{
		"empty":          nil,
		"single":         {42},
		"single-min":     {math.MinInt64},
		"extremes":       {math.MaxInt64, math.MinInt64},
		"around-zero":    {1, -1, 0},
		"edges":          {0, math.MaxInt64, -1, math.MinInt64, 1, math.MinInt64 + 1, math.MaxInt64 - 1},
		"dense-grid":     dense(0, 1<<18),
		"dense-negative": dense(-5000, 3000),
		"dense-at-max":   dense(math.MaxInt64-2100, 2101),
		"dense-at-min":   dense(math.MinInt64, 2049),
		"sparse":         {1 << 40, -(1 << 50), 7, 1 << 62, -3, 1 << 20, math.MinInt64 / 3},
	} {
		t.Run(name, func(t *testing.T) { checkSortEntries(t, keys) })
	}
	rng := rand.New(rand.NewSource(1))
	for _, bitsWide := range []uint{1, 11, 12, 22, 23, 33, 44, 55, 63, 64} {
		keys := make([]int, 1000)
		for i := range keys {
			keys[i] = int(rng.Uint64() >> (64 - bitsWide))
			if bitsWide == 64 {
				keys[i] = int(rng.Uint64())
			}
		}
		checkSortEntries(t, keys)
	}
}

// FuzzSortEntries compares sortEntries with a comparison sort on arbitrary
// int64 keys: every 8 input bytes are one key, and a base key plus a count
// byte append a dense run.
func FuzzSortEntries(f *testing.F) {
	le := func(keys ...int64) []byte {
		var b []byte
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(b, uint64(k))
		}
		return b
	}
	f.Add(le(math.MinInt64, math.MaxInt64, -1, 0, 1), int64(0), uint8(0))
	f.Add(le(5), int64(-100), uint8(200))
	f.Add(le(1<<40, -(1<<50)), int64(math.MaxInt64-50), uint8(40))
	f.Fuzz(func(t *testing.T, raw []byte, base int64, run uint8) {
		var keys []int
		for ; len(raw) >= 8; raw = raw[8:] {
			keys = append(keys, int(int64(binary.LittleEndian.Uint64(raw))))
		}
		for i := 0; i < int(run); i++ {
			keys = append(keys, int(base)+i) // wraps past MaxInt64 like any int64
		}
		checkSortEntries(t, keys)
	})
}

// denseFrame encodes n consecutive countObj keys from a store of nshards.
func denseFrame(t testing.TB, n, nshards int) []byte {
	t.Helper()
	st := newTestStore(nshards)
	for k := 0; k < n; k++ {
		st.insert(k, &countObj{n: int64(k)})
	}
	return encodeStore(t, st)
}

// TestDecodeStoreAllocsPerShard pins the restore cost: decoding a
// 65,536-key FixedSizeObj frame allocates a fixed number of arrays per shard
// (index, keys, objs and one slab), never one object per key.
func TestDecodeStoreAllocsPerShard(t *testing.T) {
	const keys, nshards = 1 << 16, 4
	buf := denseFrame(t, keys, nshards)
	factory := func() RedObj { return &countObj{} }
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := decodeStore(buf, nshards, factory); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 8 + 8*nshards; allocs > float64(limit) {
		t.Fatalf("decodeStore of %d keys over %d shards made %.0f allocations, want ≤ %d", keys, nshards, allocs, limit)
	}
	st, err := decodeStore(buf, nshards, factory)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		if obj, ok := st.lookup(k); !ok || obj.(*countObj).n != int64(k) {
			t.Fatalf("key %d: got %v, %v", k, obj, ok)
		}
	}
}

// TestDecodeStoreRejectsHugeCountCheaply: a 16-byte frame whose header
// claims 2³¹−1 entries is refused before anything is sized for that count.
func TestDecodeStoreRejectsHugeCountCheaply(t *testing.T) {
	buf := binary.LittleEndian.AppendUint32(nil, math.MaxInt32)
	buf = append(buf, make([]byte, 12)...)
	factory := func() RedObj { return &countObj{} }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeStore(buf, 64, factory)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decodeStore accepted a frame claiming 2^31-1 entries in 16 bytes")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting the frame allocated %d bytes", grew)
	}
}
