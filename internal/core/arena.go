package core

// Arena store tuning constants.
const (
	// arenaMinTable is the smallest open-addressing table a shard allocates
	// (power of two). Tables are built lazily: an untouched shard costs
	// three nil slices.
	arenaMinTable = 16
	// arenaMaxLoad is the occupancy numerator over 4: a shard rebuilds its
	// table when live+tombstone cells exceed 3/4 of it. Linear probing stays
	// short below this load, and the rebuild drops tombstones for free.
	arenaMaxLoadNum = 3
	// arenaSlabObjs is how many reduction objects one slab carves at a time
	// for FixedSizeObj applications — large enough to amortize the two
	// allocations per slab (backing array + headers) over many keys, small
	// enough that a sparse shard does not strand much memory.
	arenaSlabObjs = 64
	// arenaTomb marks a deleted cell in the index; live cells hold slot+1
	// and empty cells hold 0, so a zeroed table is an empty table.
	arenaTomb = -1
)

// arenaShard is one shard of an arenaStore: an open-addressing index over a
// contiguous arena of entries in insertion order. The index holds slot+1
// (0 = empty, arenaTomb = deleted), so growing the table never moves an
// object — pointers handed out by lookup stay valid across every operation,
// which the scheduler's chunkCache depends on.
type arenaShard struct {
	index []int32
	// keys and objs are the arena, parallel arrays in insertion order. A
	// removed entry keeps its slot with objs[slot] = nil (dead) until the
	// next rebuild compacts it away.
	keys []int
	objs []RedObj
	// dead counts nil objs slots; tombs counts arenaTomb index cells.
	dead, tombs int
	// slab holds fresh, never-handed-out objects for the FixedSizeObj fast
	// path. Handed-out objects may escape to the combination map, so clear
	// keeps only this remainder.
	slab []RedObj
	// probes/lookups feed smart_core_store_probe_len; plain counters are
	// safe because all operations on a shard are single-goroutine by the
	// forShards discipline.
	probes, lookups int64
}

// arenaStore is the reduction/combination-map storage layer: everything
// between the scheduler and the bytes — lookup-or-insert on the reduction
// hot path, the shard-parallel combine-into, per-shard iteration for the
// canonical serialization, and the flat views handed to application code.
//
// Per shard it keeps a Fibonacci-hashed open-addressing index plus a
// contiguous arena of reduction objects: no per-key map-entry allocation,
// cache-friendly iteration (two flat arrays instead of bucket chains), all
// storage reused across iterations via clear, and — for FixedSizeObj
// applications — objects allocated in contiguous slabs, so creating objects
// for fresh keys allocates O(keys/slab) instead of O(keys).
//
// Keys are partitioned with shardIndex over a shard count every store of one
// scheduler shares, so shard si of any two stores covers the same key set and
// the shard-parallel phases stay lock-free. Per-shard state is independent:
// concurrent calls are allowed as long as no two goroutines touch keys of the
// same shard (the forShards discipline). Iteration order inside a shard is
// insertion order, but the pipeline never depends on it: serialization
// radix-sorts keys and per-key phases are order-independent.
type arenaStore struct {
	shards []arenaShard
	create func() RedObj
	// proto is non-nil when the factory's objects opt into the fixed-width
	// inline layout; its NewSlab carves factory-fresh copies of it.
	proto FixedSizeObj
}

func newArenaStore(nshards int, create func() RedObj) *arenaStore {
	a := &arenaStore{shards: make([]arenaShard, nshards), create: create}
	if create != nil {
		a.proto, _ = create().(FixedSizeObj)
	}
	return a
}

// shardIndex maps a key to its shard. The multiplicative mix (Fibonacci
// hashing) spreads the dense sequential keys most applications generate, and
// the multiply-shift range reduction avoids an integer division on the
// per-chunk reduction hot path.
func shardIndex(key, nshards int) int {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int((uint64(uint32(h>>32)) * uint64(nshards)) >> 32)
}

// hashKey is the in-shard hash. Shard selection consumes the high bits of
// the same Fibonacci product (shardIndex), so the table index uses the low
// 32 bits — an odd multiplier is a bijection mod 2^32, so the dense
// sequential keys applications generate land collision-free.
func hashKey(key int) uint32 {
	return uint32(uint64(key) * 0x9E3779B97F4A7C15)
}

// numShards is the shard count S every store of one scheduler shares.
func (a *arenaStore) numShards() int { return len(a.shards) }

func (a *arenaStore) shardOf(key int) *arenaShard {
	return &a.shards[shardIndex(key, len(a.shards))]
}

// shardLen is the live entry count of one shard (capacity hints).
func (a *arenaStore) shardLen(si int) int {
	sh := &a.shards[si]
	return len(sh.keys) - sh.dead
}

// size is the total live entry count.
func (a *arenaStore) size() int {
	total := 0
	for i := range a.shards {
		sh := &a.shards[i]
		total += len(sh.keys) - sh.dead
	}
	return total
}

// find probes for key. It returns the arena slot (-1 if absent) and the
// index cell where an insert of key should write — the first tombstone on
// the probe path if one was crossed, else the empty cell that ended it.
func (sh *arenaShard) find(key int) (slot, cell int) {
	mask := uint32(len(sh.index) - 1)
	i := hashKey(key) & mask
	first := -1
	sh.lookups++
	for {
		sh.probes++
		switch v := sh.index[i]; {
		case v == 0:
			if first >= 0 {
				return -1, first
			}
			return -1, int(i)
		case v == arenaTomb:
			if first < 0 {
				first = int(i)
			}
		default:
			if s := int(v - 1); sh.keys[s] == key {
				return s, int(i)
			}
		}
		i = (i + 1) & mask
	}
}

// place stores the (key, obj) entry in a new arena slot and links it from
// the index, rebuilding the table first when occupancy would cross the load
// factor. The caller has already established that key is absent.
func (sh *arenaShard) place(key int, obj RedObj) {
	if len(sh.index) == 0 {
		sh.index = make([]int32, arenaMinTable)
	}
	live := len(sh.keys) - sh.dead
	if (live+sh.tombs+1)*4 >= len(sh.index)*arenaMaxLoadNum {
		sh.rebuild()
	}
	_, cell := sh.find(key)
	// The caller's find already counted this keyed operation; the re-probe
	// after a possible rebuild is part of it, not a second lookup.
	sh.lookups--
	if sh.index[cell] == arenaTomb {
		sh.tombs--
	}
	sh.keys = append(sh.keys, key)
	sh.objs = append(sh.objs, obj)
	sh.index[cell] = int32(len(sh.keys))
}

// rebuild compacts the arena (dropping dead entries) and rehashes the index
// without tombstones, sizing the table for twice the live count. Compaction
// moves interface values between slots, never the objects they point to, so
// object pointers held by callers stay valid.
func (sh *arenaShard) rebuild() {
	if sh.dead > 0 {
		w := 0
		for r, obj := range sh.objs {
			if obj == nil {
				continue
			}
			sh.keys[w], sh.objs[w] = sh.keys[r], obj
			w++
		}
		clear(sh.objs[w:])
		sh.keys, sh.objs = sh.keys[:w], sh.objs[:w]
		sh.dead = 0
	}
	if want := tableFor(len(sh.keys)); want <= len(sh.index) {
		clear(sh.index)
	} else {
		sh.index = make([]int32, want)
	}
	sh.tombs = 0
	mask := uint32(len(sh.index) - 1)
	for slot, key := range sh.keys {
		i := hashKey(key) & mask
		for sh.index[i] != 0 {
			i = (i + 1) & mask
		}
		sh.index[i] = int32(slot + 1)
	}
}

// tableFor is the index size for n live entries: the smallest power of two
// (at least arenaMinTable) that holds them below the load factor.
func tableFor(n int) int {
	want := arenaMinTable
	for want*arenaMaxLoadNum <= n*4 {
		want *= 2
	}
	return want
}

// reserve sizes an empty store for counts[si] entries in shard si: each
// shard's index, keys and objs arrays are allocated once at their final
// size and, for FixedSizeObj applications, one slab holds exactly the
// shard's objects — so filling the store allocates O(shards), not O(keys).
func (a *arenaStore) reserve(counts []int) {
	for si, n := range counts {
		if n == 0 {
			continue
		}
		sh := &a.shards[si]
		sh.index = make([]int32, tableFor(n))
		sh.keys = make([]int, 0, n)
		sh.objs = make([]RedObj, 0, n)
		if a.proto != nil {
			sh.slab = a.proto.NewSlab(n)
		}
	}
}

// fresh hands out one factory-state object, drawing from the shard's slab
// when the application opted into FixedSizeObj.
func (a *arenaStore) fresh(sh *arenaShard) RedObj {
	if a.proto == nil {
		return a.create()
	}
	if len(sh.slab) == 0 {
		sh.slab = a.proto.NewSlab(arenaSlabObjs)
	}
	obj := sh.slab[len(sh.slab)-1]
	sh.slab = sh.slab[:len(sh.slab)-1]
	return obj
}

// lookup returns the object stored under key.
func (a *arenaStore) lookup(key int) (RedObj, bool) {
	sh := a.shardOf(key)
	if len(sh.index) == 0 {
		return nil, false
	}
	slot, _ := sh.find(key)
	if slot < 0 {
		return nil, false
	}
	return sh.objs[slot], true
}

// lookupOrCreate returns the object under key, creating one with the
// store's factory on first touch; created reports a fresh object.
func (a *arenaStore) lookupOrCreate(key int) (obj RedObj, created bool) {
	sh := a.shardOf(key)
	if len(sh.index) > 0 {
		if slot, _ := sh.find(key); slot >= 0 {
			return sh.objs[slot], false
		}
	}
	obj = a.fresh(sh)
	sh.place(key, obj)
	return obj, true
}

// insert stores obj under key, replacing any present object. The store
// aliases obj; it does not copy.
func (a *arenaStore) insert(key int, obj RedObj) {
	sh := a.shardOf(key)
	if len(sh.index) > 0 {
		if slot, _ := sh.find(key); slot >= 0 {
			sh.objs[slot] = obj
			return
		}
	}
	sh.place(key, obj)
}

// remove erases key (early emission).
func (a *arenaStore) remove(key int) {
	sh := a.shardOf(key)
	if len(sh.index) == 0 {
		return
	}
	slot, cell := sh.find(key)
	if slot < 0 {
		return
	}
	sh.index[cell] = arenaTomb
	sh.tombs++
	sh.objs[slot] = nil
	sh.dead++
}

// clear empties the store, retaining internal capacity for reuse.
func (a *arenaStore) clear() {
	for i := range a.shards {
		sh := &a.shards[i]
		clear(sh.index)
		// Nil the object references so moved-out objects are reachable only
		// from their new owner; the arrays themselves are retained — that
		// reuse is the store's main allocation win across iterations.
		clear(sh.objs)
		sh.keys, sh.objs = sh.keys[:0], sh.objs[:0]
		sh.dead, sh.tombs = 0, 0
	}
}

// reseed replaces the contents with flat's entries (aliased, not cloned). It
// is the only way a flat map flows back into a store: after application code
// mutated a view, reseed takes in every inserted, deleted, or replaced key.
func (a *arenaStore) reseed(flat CombMap) {
	a.clear()
	for k, obj := range flat {
		a.insert(k, obj)
	}
}

// view returns a new flat map of the live entries. The map is the caller's;
// its values alias the store's objects.
func (a *arenaStore) view() CombMap {
	m := make(CombMap, a.size())
	for i := range a.shards {
		a.forEachIn(i, func(k int, obj RedObj) { m[k] = obj })
	}
	return m
}

// forEachIn calls fn for every live entry of shard si, in insertion order.
// fn must not mutate the store.
func (a *arenaStore) forEachIn(si int, fn func(key int, obj RedObj)) {
	sh := &a.shards[si]
	for slot, obj := range sh.objs {
		if obj != nil {
			fn(sh.keys[slot], obj)
		}
	}
}

// takeStats drains the store's counters accumulated since the last call.
// Counters are maintained per shard without atomics; callers must drain only
// from the coordinating goroutine, after phase workers joined.
func (a *arenaStore) takeStats() storeStats {
	var st storeStats
	for i := range a.shards {
		sh := &a.shards[i]
		st.probes += sh.probes
		st.lookups += sh.lookups
		sh.probes, sh.lookups = 0, 0
		st.arenaBytes += int64(cap(sh.index))*4 + int64(cap(sh.keys))*8 + int64(cap(sh.objs))*16
	}
	return st
}
