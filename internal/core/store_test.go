package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// newTestStore builds an arena store with the countObj factory the core
// tests share.
func newTestStore(nshards int) *arenaStore {
	return newArenaStore(nshards, func() RedObj { return &countObj{} })
}

func TestStoreBasicOps(t *testing.T) {
	t.Run("arena", func(t *testing.T) {
		st := newTestStore(4)
		if st.size() != 0 {
			t.Fatalf("fresh store size %d", st.size())
		}
		if _, ok := st.lookup(7); ok {
			t.Fatal("lookup on empty store succeeded")
		}
		obj, created := st.lookupOrCreate(7)
		if !created {
			t.Fatal("first lookupOrCreate did not create")
		}
		obj.(*countObj).n = 70
		if again, created := st.lookupOrCreate(7); created || again != obj {
			t.Fatal("second lookupOrCreate did not return the same object")
		}
		if got, ok := st.lookup(7); !ok || got != obj {
			t.Fatal("lookup did not return the created object")
		}
		st.insert(7, &countObj{n: 1})
		if got, _ := st.lookup(7); got.(*countObj).n != 1 {
			t.Fatal("insert did not replace")
		}
		src := &countObj{n: 42}
		st.insert(9, src)
		if got, _ := st.lookup(9); got != RedObj(src) {
			t.Fatal("insert did not store its object")
		}
		if st.size() != 2 {
			t.Fatalf("size %d, want 2", st.size())
		}
		st.remove(7)
		if _, ok := st.lookup(7); ok || st.size() != 1 {
			t.Fatal("remove left the key visible")
		}
		st.remove(7) // idempotent
		st.clear()
		if st.size() != 0 {
			t.Fatalf("size %d after clear", st.size())
		}
		if _, ok := st.lookup(9); ok {
			t.Fatal("lookup found a cleared key")
		}
	})
}

func TestStoreReseedFlattenRoundTrip(t *testing.T) {
	t.Run("arena", func(t *testing.T) {
		flat := CombMap{}
		for k := -50; k < 50; k += 3 {
			flat[k] = &countObj{n: int64(k)}
		}
		st := newTestStore(5)
		st.reseed(flat)
		if st.size() != len(flat) {
			t.Fatalf("size %d, want %d", st.size(), len(flat))
		}
		// reseed aliases, never clones.
		for k, obj := range flat {
			if got, ok := st.lookup(k); !ok || got != obj {
				t.Fatalf("key %d not aliased", k)
			}
		}
		// view returns every live entry, and reseeding from it reproduces
		// the same store.
		st.insert(999, &countObj{n: 999})
		st.remove(-50)
		view := st.view()
		if _, ok := view[-50]; ok || len(view) != 34 || view[999].(*countObj).n != 999 {
			t.Fatalf("view has %d keys", len(view))
		}
		before := encodeStore(t, st)
		st.reseed(view)
		if !bytes.Equal(encodeStore(t, st), before) {
			t.Fatal("reseed from a view changed the store")
		}
	})
}

// TestStoreOrderedKeys pins the canonical serialization order: the whole
// store and each shard frame carry their keys in ascending order, and the
// shard frames partition the store's key set.
func TestStoreOrderedKeys(t *testing.T) {
	t.Run("arena", func(t *testing.T) {
		keys := []int{31, -7, 0, 1024, 2, -900, 77, 78, 79}
		st := newTestStore(3)
		for _, k := range keys {
			st.insert(k, &countObj{n: int64(k)})
		}
		want := append([]int(nil), keys...)
		sort.Ints(want)
		if got := frameKeys(t, encodeStore(t, st)); !reflect.DeepEqual(got, want) {
			t.Fatalf("store frame keys = %v, want %v", got, want)
		}
		var all []int
		for si := 0; si < st.numShards(); si++ {
			buf, err := appendShardOf(nil, st, si)
			if err != nil {
				t.Fatal(err)
			}
			sk := frameKeys(t, buf)
			if !sort.IntsAreSorted(sk) {
				t.Fatalf("shard %d keys not sorted: %v", si, sk)
			}
			if len(sk) != st.shardLen(si) {
				t.Fatalf("shard %d: %d keys, shardLen %d", si, len(sk), st.shardLen(si))
			}
			all = append(all, sk...)
		}
		sort.Ints(all)
		if !reflect.DeepEqual(all, want) {
			t.Fatalf("shard keys union = %v, want %v", all, want)
		}
	})
}

// frameKeys lists the keys of a map frame in frame order.
func frameKeys(t testing.TB, buf []byte) []int {
	t.Helper()
	var keys []int
	if err := walkEntries(buf, func(k int, _ []byte) error {
		keys = append(keys, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestArenaCompaction drives one shard through enough churn to force
// tombstone accumulation, rebuilds, and dead-entry compaction, checking the
// live view after every phase.
func TestArenaCompaction(t *testing.T) {
	a := newArenaStore(1, func() RedObj { return &countObj{} })
	const n = 1000
	for k := 0; k < n; k++ {
		obj, _ := a.lookupOrCreate(k)
		obj.(*countObj).n = int64(k)
	}
	// Hold pointers across rebuilds: the arena must never move objects.
	held := make(map[int]*countObj)
	for k := 0; k < n; k += 97 {
		obj, _ := a.lookup(k)
		held[k] = obj.(*countObj)
	}
	for k := 0; k < n; k++ {
		if k%3 != 0 {
			a.remove(k)
		}
	}
	if got, want := a.size(), (n+2)/3; got != want {
		t.Fatalf("size %d after removes, want %d", got, want)
	}
	// Re-insert into the churned table; this crosses the load factor with
	// tombstones present and must trigger compacting rebuilds.
	for k := n; k < 2*n; k++ {
		obj, created := a.lookupOrCreate(k)
		if !created {
			t.Fatalf("key %d already present", k)
		}
		obj.(*countObj).n = int64(k)
	}
	for k := 0; k < 2*n; k++ {
		obj, ok := a.lookup(k)
		switch {
		case k < n && k%3 == 0, k >= n:
			if !ok || obj.(*countObj).n != int64(k) {
				t.Fatalf("key %d: ok=%v obj=%v", k, ok, obj)
			}
		default:
			if ok {
				t.Fatalf("removed key %d still present", k)
			}
		}
	}
	for k, p := range held {
		if k%3 == 0 {
			if obj, _ := a.lookup(k); obj.(*countObj) != p {
				t.Fatalf("key %d moved across rebuilds", k)
			}
		}
	}
	st := a.takeStats()
	if st.lookups <= 0 || st.probes < st.lookups || st.arenaBytes <= 0 {
		t.Fatalf("implausible stats %+v", st)
	}
	if again := a.takeStats(); again.lookups != 0 || again.probes != 0 {
		t.Fatalf("takeStats did not drain: %+v", again)
	}
}

// TestArenaSlab pins the FixedSizeObj fast path: created objects come from
// contiguous slabs in factory-fresh state, and clear retains the unused
// remainder without resurrecting handed-out objects.
func TestArenaSlab(t *testing.T) {
	a := newArenaStore(1, func() RedObj { return &countObj{n: -5} })
	if a.proto == nil {
		t.Fatal("countObj did not register as FixedSizeObj")
	}
	obj, _ := a.lookupOrCreate(1)
	if obj.(*countObj).n != -5 {
		t.Fatalf("slab object not factory-fresh: %+v", obj)
	}
	obj.(*countObj).n = 11
	// A second create must come from the same slab block while it lasts.
	obj2, _ := a.lookupOrCreate(2)
	if obj2.(*countObj).n != -5 {
		t.Fatalf("second slab object not factory-fresh: %+v", obj2)
	}
	// insert stores the caller's object as is.
	c := &countObj{n: 33}
	a.insert(3, c)
	if got, _ := a.lookup(3); got != RedObj(c) {
		t.Fatalf("insert stored %+v", got)
	}
	a.clear()
	// Recycled slab objects must come back factory-fresh, and must not be
	// the objects previously handed out (those escaped to the caller).
	seen := map[RedObj]bool{obj: true, obj2: true, c: true}
	for k := 10; k < 10+2*arenaSlabObjs; k++ {
		o, created := a.lookupOrCreate(k)
		if !created || o.(*countObj).n != -5 {
			t.Fatalf("post-clear object for %d: created=%v %+v", k, created, o)
		}
		if seen[o] {
			t.Fatalf("key %d resurrected a handed-out object", k)
		}
		seen[o] = true
	}
}

// storeOp is one operation of a differential sequence: kind selects remove,
// insert (kinds 1 and 2), clear, or (any other value) lookupOrCreate-and-add.
type storeOp struct {
	kind int
	key  int
	n    int64
}

// randomStoreOps builds a deterministic pseudo-random operation sequence.
func randomStoreOps(seed int64, n int) []storeOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]storeOp, n)
	for i := range ops {
		ops[i] = storeOp{kind: rng.Intn(10), key: rng.Intn(200) - 100, n: int64(i)}
	}
	return ops
}

// applyStoreOps runs ops against the arena and, in lockstep, against model —
// a plain Go map with the same semantics, the reference the arena must match.
func applyStoreOps(st *arenaStore, model CombMap, ops []storeOp) {
	for _, op := range ops {
		switch op.kind {
		case 0:
			st.remove(op.key)
			delete(model, op.key)
		case 1, 2:
			st.insert(op.key, &countObj{n: op.n})
			model[op.key] = &countObj{n: op.n}
		case 3:
			st.clear()
			clear(model)
		default:
			obj, _ := st.lookupOrCreate(op.key)
			obj.(*countObj).n += op.n
			m, ok := model[op.key]
			if !ok {
				m = &countObj{}
				model[op.key] = m
			}
			m.(*countObj).n += op.n
		}
	}
}

// checkStoreAgainstModel requires every observable of st — size, contents,
// per-shard sizes, per-shard and whole-store encodings — to match the map
// model.
func checkStoreAgainstModel(t testing.TB, st *arenaStore, model CombMap) {
	t.Helper()
	if st.size() != len(model) {
		t.Fatalf("size %d, model %d", st.size(), len(model))
	}
	view := st.view()
	for k, want := range model {
		if got, ok := view[k]; !ok || got.(*countObj).n != want.(*countObj).n {
			t.Fatalf("key %d: store %v, model %v", k, got, want)
		}
	}
	shards := make([]CombMap, st.numShards())
	for i := range shards {
		shards[i] = CombMap{}
	}
	for k, obj := range model {
		shards[shardIndex(k, len(shards))][k] = obj
	}
	for si, want := range shards {
		if st.shardLen(si) != len(want) {
			t.Fatalf("shard %d: len %d, model %d", si, st.shardLen(si), len(want))
		}
		got, err := appendShardOf(nil, st, si)
		if err != nil {
			t.Fatal(err)
		}
		if wb := encodeModel(t, want); !bytes.Equal(got, wb) {
			t.Fatalf("shard %d encoding differs from the model", si)
		}
	}
	if !bytes.Equal(encodeStore(t, st), encodeModel(t, model)) {
		t.Fatal("whole-store encoding differs from the model")
	}
}

// encodeModel encodes the model through a one-shard store built by plain
// inserts, the simplest store state that holds exactly the model.
func encodeModel(t testing.TB, m CombMap) []byte {
	t.Helper()
	st := newTestStore(1)
	st.reseed(m)
	return encodeStore(t, st)
}

func encodeStore(t testing.TB, st *arenaStore) []byte {
	t.Helper()
	buf, err := appendStore(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestStoreDifferentialRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st, model := newTestStore(7), CombMap{}
			applyStoreOps(st, model, randomStoreOps(seed, 500))
			checkStoreAgainstModel(t, st, model)
		})
	}
}

// TestSchedulerArenaByteIdentical runs the same two-iteration workload on
// four threads with four combine shards; the encoded combination map must
// match the serial pipeline (one thread, one shard) byte for byte. Each
// iteration's reduction starts from empty stores, so the second iteration
// adds the input once more whatever the thread count.
func TestSchedulerArenaByteIdentical(t *testing.T) {
	in := histInput(4000)
	encode := func(threads int) []byte {
		s := MustNewScheduler[int, int64](bucketApp{width: 3},
			SchedArgs{NumThreads: threads, ChunkSize: 1, NumIters: 2, CombineShards: threads})
		out := make([]int64, 34)
		if err := s.Run(in, out); err != nil {
			t.Fatal(err)
		}
		buf, err := s.EncodeCombinationMap()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if !bytes.Equal(encode(4), encode(1)) {
		t.Error("encoding differs from the serial pipeline")
	}
}

// FuzzStoreRoundTrip drives the arena through a fuzzed operation sequence
// beside a plain map model and requires identical observable state, then
// checks the canonical encoding survives a decode/re-encode round trip. The
// op byte's high five bits shift the key left by 0–62 bits, so key spans
// reach every radix pass of sortEntries, up to the full int64 range.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(3))
	f.Add([]byte{0xff, 0x00, 0x41, 0x41, 0x10, 0x80, 7, 7, 7}, uint8(1))
	f.Add(bytes.Repeat([]byte{5, 250, 17}, 40), uint8(8))
	f.Add([]byte{0xf9, 0xfe, 0xf9, 0x01, 0x59, 0x7f, 0x2a, 0x80, 0x01, 0x05}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, nsh uint8) {
		var ops []storeOp
		for i := 0; i+1 < len(raw); i += 2 {
			key := int(int64(int8(raw[i+1])) * 3 << (raw[i] >> 3 * 2))
			ops = append(ops, storeOp{kind: int(raw[i] % 8), key: key, n: int64(i)})
		}
		st, model := newTestStore(int(nsh%8)+1), CombMap{}
		applyStoreOps(st, model, ops)
		checkStoreAgainstModel(t, st, model)
		enc := encodeStore(t, st)
		back, err := decodeStore(enc, 1, func() RedObj { return &countObj{} })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeStore(t, back), enc) {
			t.Fatal("decode/re-encode round trip changed bytes")
		}
	})
}
