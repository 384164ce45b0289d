package core

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestShardIndexInRange(t *testing.T) {
	keys := []int{0, 1, -1, 7, 63, 64, 1 << 20, -(1 << 20), 1<<62 - 1, -(1 << 62)}
	for _, n := range []int{1, 2, 3, 8, 17} {
		for _, k := range keys {
			si := shardIndex(k, n)
			if si < 0 || si >= n {
				t.Fatalf("shardIndex(%d, %d) = %d, out of range", k, n, si)
			}
		}
	}
}

func TestShardIndexSpreads(t *testing.T) {
	// Sequential keys — the common dense-key case — must not pile into a
	// few shards, or the shard-parallel phases degenerate to serial.
	const n, keys = 8, 10000
	counts := make([]int, n)
	for k := 0; k < keys; k++ {
		counts[shardIndex(k, n)]++
	}
	for si, c := range counts {
		if c < keys/n/2 || c > keys/n*2 {
			t.Errorf("shard %d holds %d of %d keys — poor spread: %v", si, c, keys, counts)
		}
	}
}

func TestShardedMapFlattenPreservesIdentity(t *testing.T) {
	flat := CombMap{1: &countObj{n: 10}, 2: &countObj{n: 20}, 77: &countObj{n: 30}}
	st := newTestStore(4)
	st.reseed(flat)
	if st.size() != len(flat) {
		t.Fatalf("sharded size %d, want %d", st.size(), len(flat))
	}
	// The sharded view aliases the same objects.
	for k, obj := range flat {
		if got, ok := st.lookup(k); !ok || got != obj {
			t.Fatalf("key %d not aliased in its shard", k)
		}
	}
	// A view is a new map over the same objects: its keys are its own, its
	// values are the store's.
	st.insert(5, &countObj{n: 50})
	view := st.view()
	if len(view) != 4 || view[5].(*countObj).n != 50 {
		t.Fatalf("view result: %v", view)
	}
	for k, obj := range view {
		if got, _ := st.lookup(k); got != obj {
			t.Fatalf("view key %d does not alias the stored object", k)
		}
	}
	delete(view, 1)
	if _, ok := st.lookup(1); !ok || len(flat) != 3 {
		t.Fatal("deleting from a view reached the store or the reseed source")
	}
}

func TestForShardsCoversEveryShardOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		var visits [5]atomic.Int64
		durs := forShards(5, workers, func(si int) { visits[si].Add(1) })
		for si := range visits {
			if v := visits[si].Load(); v != 1 {
				t.Fatalf("workers=%d: shard %d visited %d times", workers, si, v)
			}
		}
		if len(durs) != 5 {
			t.Fatalf("workers=%d: %d durations, want 5", workers, len(durs))
		}
	}
}

// TestSchedArgsDefaultingSingleSource pins the satellite fix: defaulting
// happens in withDefaults only, so every constructor entry point resolves
// zero-value SchedArgs identically.
func TestSchedArgsDefaultingSingleSource(t *testing.T) {
	in := SchedArgs{NumThreads: 3, ChunkSize: 1} // NumIters, CombineShards zero
	a, err := NewScheduler[int, int64](bucketApp{width: 10}, in)
	if err != nil {
		t.Fatal(err)
	}
	b := MustNewScheduler[int, int64](bucketApp{width: 10}, in)
	if !reflect.DeepEqual(a.args, b.args) {
		t.Fatalf("entry points resolved args differently:\n  NewScheduler:     %+v\n  MustNewScheduler: %+v", a.args, b.args)
	}
	if a.args.NumIters != 1 {
		t.Errorf("NumIters defaulted to %d, want 1", a.args.NumIters)
	}
	if a.args.CombineShards != a.args.NumThreads {
		t.Errorf("CombineShards defaulted to %d, want NumThreads=%d", a.args.CombineShards, a.args.NumThreads)
	}
	if a.store.numShards() != a.args.CombineShards {
		t.Errorf("scheduler built %d shards, want %d", a.store.numShards(), a.args.CombineShards)
	}
}

// TestShardedEncodingMatchesSerialReference: the sharded pipeline must be an
// implementation detail — one shard (the serial reference) and many shards
// produce byte-identical encoded combination maps.
func TestShardedEncodingMatchesSerialReference(t *testing.T) {
	in := histInput(5000)
	encode := func(shards int) []byte {
		s := MustNewScheduler[int, int64](bucketApp{width: 3},
			SchedArgs{NumThreads: 4, ChunkSize: 1, NumIters: 1, CombineShards: shards})
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
	ref := encode(1)
	for _, shards := range []int{2, 3, 4, 16} {
		if got := encode(shards); !bytes.Equal(got, ref) {
			t.Errorf("CombineShards=%d encoding differs from serial reference", shards)
		}
	}
}
