package core

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"github.com/scipioneer/smart/internal/chunk"
)

// monoidApp folds values into per-key (sum, count, min, max) — a
// commutative monoid, which is exactly the algebraic class the Smart
// combination model promises to evaluate correctly under any partitioning.
type monoidApp struct{ keys int }

type monoidObj struct {
	sum, count, min, max int64
	init                 bool
}

func (o *monoidObj) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 33)
	for _, v := range []int64{o.sum, o.count, o.min, o.max} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	if o.init {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf, nil
}
func (o *monoidObj) UnmarshalBinary(b []byte) error {
	o.sum = int64(binary.LittleEndian.Uint64(b))
	o.count = int64(binary.LittleEndian.Uint64(b[8:]))
	o.min = int64(binary.LittleEndian.Uint64(b[16:]))
	o.max = int64(binary.LittleEndian.Uint64(b[24:]))
	o.init = b[32] == 1
	return nil
}

func (o *monoidObj) add(v int64) {
	if !o.init {
		o.min, o.max, o.init = v, v, true
	} else {
		o.min = min(o.min, v)
		o.max = max(o.max, v)
	}
	o.sum += v
	o.count++
}

func (o *monoidObj) combine(p *monoidObj) {
	if !p.init {
		return
	}
	if !o.init {
		*o = *p
		return
	}
	o.sum += p.sum
	o.count += p.count
	o.min = min(o.min, p.min)
	o.max = max(o.max, p.max)
}

func (a monoidApp) NewRedObj() RedObj { return &monoidObj{} }
func (a monoidApp) GenKey(c chunk.Chunk, data []int64) int {
	k := int(data[c.Start]) % a.keys
	if k < 0 {
		k += a.keys
	}
	return k
}
func (a monoidApp) Accumulate(_ int, c chunk.Chunk, data []int64, obj RedObj) {
	obj.(*monoidObj).add(data[c.Start])
}
func (a monoidApp) Merge(src, dst RedObj) { dst.(*monoidObj).combine(src.(*monoidObj)) }

// TestSchedulerMonoidProperty: for any input and any (threads, blockSize)
// configuration, the scheduler's per-key fold equals a direct sequential
// fold. This is the core correctness contract of the reduction-map design.
func TestSchedulerMonoidProperty(t *testing.T) {
	f := func(data []int64, threadsRaw, blockRaw, keysRaw uint8) bool {
		threads := int(threadsRaw%8) + 1
		blockSize := int(blockRaw) * 4
		keys := int(keysRaw%5) + 1
		app := monoidApp{keys: keys}
		s := MustNewScheduler[int64, int64](app, SchedArgs{
			NumThreads: threads, ChunkSize: 1, NumIters: 1, BlockSize: blockSize,
		})
		if err := s.Run(data, nil); err != nil {
			return false
		}

		want := make(map[int]*monoidObj)
		for _, v := range data {
			k := int(v) % keys
			if k < 0 {
				k += keys
			}
			if want[k] == nil {
				want[k] = &monoidObj{}
			}
			want[k].add(v)
		}
		got := s.CombinationMap()
		if len(got) != len(want) {
			return false
		}
		for k, w := range want {
			g, ok := got[k].(*monoidObj)
			if !ok {
				return false
			}
			if g.sum != w.sum || g.count != w.count || g.min != w.min || g.max != w.max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerMergeOrderIndependence: merging per-partition maps in any
// order yields the same result as one whole-input run — the property the
// tree and flat global combinations both rely on.
func TestSchedulerMergeOrderIndependence(t *testing.T) {
	f := func(data []int64, cuts [2]uint8) bool {
		if len(data) == 0 {
			return true
		}
		app := monoidApp{keys: 3}
		whole := MustNewScheduler[int64, int64](app, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
		if err := whole.Run(data, nil); err != nil {
			return false
		}

		// Split into three parts at random cut points.
		c1 := int(cuts[0]) % (len(data) + 1)
		c2 := c1 + int(cuts[1])%(len(data)-c1+1)
		parts := [][]int64{data[:c1], data[c1:c2], data[c2:]}
		// Merge in reversed order.
		acc := MustNewScheduler[int64, int64](app, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
		for i := len(parts) - 1; i >= 0; i-- {
			step := MustNewScheduler[int64, int64](app, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
			if err := step.Run(parts[i], nil); err != nil {
				return false
			}
			acc.MergeCombinationMap(step.CombinationMap())
		}

		w, g := whole.CombinationMap(), acc.CombinationMap()
		if len(w) != len(g) {
			return false
		}
		for k, wo := range w {
			gobj, ok := g[k].(*monoidObj)
			if !ok {
				return false
			}
			wobj := wo.(*monoidObj)
			if gobj.sum != wobj.sum || gobj.count != wobj.count ||
				gobj.min != wobj.min || gobj.max != wobj.max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
