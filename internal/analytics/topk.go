package analytics

import (
	"sort"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// TopK extends the feature-analytics class: track the K largest values in
// the field together with their global positions (hotspot detection — the
// in-situ feature-extraction use case of the paper's Section 2.2). The
// reduction object is a bounded min-heap, so the analytics state is Θ(K)
// regardless of the data size.
type TopK struct {
	// K is the number of extremes to keep.
	K int
	// Base is the global index of this process's first element.
	Base int
}

// NewTopK creates the application; it panics on a non-positive K.
func NewTopK(k, base int) *TopK {
	if k <= 0 {
		panic("analytics: K must be positive")
	}
	return &TopK{K: k, Base: base}
}

// Extreme is one tracked value with its global position.
type Extreme struct {
	Pos int64
	Val float64
}

// TopKObj is the bounded min-heap of the K largest values seen.
type TopKObj struct {
	K     int
	Items []Extreme // min-heap by Val
}

// AppendBinary implements core.Appender.
func (o *TopKObj) AppendBinary(b []byte) ([]byte, error) {
	b = appendI64(b, int64(o.K))
	b = appendI64(b, int64(len(o.Items)))
	for _, it := range o.Items {
		b = appendI64(b, it.Pos)
		b = appendF64(b, it.Val)
	}
	return b, nil
}

// MarshalBinary implements core.RedObj.
func (o *TopKObj) MarshalBinary() ([]byte, error) {
	return o.AppendBinary(make([]byte, 0, 16+16*len(o.Items)))
}

// UnmarshalBinary implements core.RedObj.
func (o *TopKObj) UnmarshalBinary(b []byte) error {
	var k, n int64
	var err error
	if k, b, err = readI64(b); err != nil {
		return err
	}
	if n, b, err = readI64(b); err != nil {
		return err
	}
	o.K = int(k)
	o.Items = make([]Extreme, n)
	for i := range o.Items {
		if o.Items[i].Pos, b, err = readI64(b); err != nil {
			return err
		}
		if o.Items[i].Val, b, err = readF64(b); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return errTrailing("TopKObj")
	}
	return nil
}

// SizeBytes implements core.Sized.
func (o *TopKObj) SizeBytes() int { return 32 + 16*cap(o.Items) }

// heap helpers: Items is a min-heap ordered by Val so the smallest tracked
// value is evicted first.

func (o *TopKObj) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if o.Items[parent].Val <= o.Items[i].Val {
			return
		}
		o.Items[parent], o.Items[i] = o.Items[i], o.Items[parent]
		i = parent
	}
}

func (o *TopKObj) siftDown(i int) {
	n := len(o.Items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && o.Items[left].Val < o.Items[smallest].Val {
			smallest = left
		}
		if right < n && o.Items[right].Val < o.Items[smallest].Val {
			smallest = right
		}
		if smallest == i {
			return
		}
		o.Items[i], o.Items[smallest] = o.Items[smallest], o.Items[i]
		i = smallest
	}
}

// Push offers a value; the heap keeps only the K largest.
func (o *TopKObj) Push(pos int64, val float64) {
	if len(o.Items) < o.K {
		o.Items = append(o.Items, Extreme{Pos: pos, Val: val})
		o.siftUp(len(o.Items) - 1)
		return
	}
	if val <= o.Items[0].Val {
		return
	}
	o.Items[0] = Extreme{Pos: pos, Val: val}
	o.siftDown(0)
}

// Sorted returns the tracked extremes in descending value order.
func (o *TopKObj) Sorted() []Extreme {
	out := append([]Extreme(nil), o.Items...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Val != out[j].Val {
			return out[i].Val > out[j].Val
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

// NewRedObj implements core.Analytics.
func (t *TopK) NewRedObj() core.RedObj { return &TopKObj{K: t.K} }

// GenKey implements core.Keyer: a single global key.
func (t *TopK) GenKey(chunk.Chunk, []float64) int { return 0 }

// Accumulate implements core.Analytics.
func (t *TopK) Accumulate(_ int, c chunk.Chunk, data []float64, obj core.RedObj) {
	obj.(*TopKObj).Push(int64(t.Base+c.Start), data[c.Start])
}

// Merge implements core.Analytics: offer every tracked item to the
// destination heap.
func (t *TopK) Merge(src, dst core.RedObj) {
	s, d := src.(*TopKObj), dst.(*TopKObj)
	if d.K == 0 {
		d.K = t.K
	}
	for _, it := range s.Items {
		d.Push(it.Pos, it.Val)
	}
}

// Extremes extracts the final descending-ordered result from a combination
// map.
func (t *TopK) Extremes(com core.CombMap) []Extreme {
	obj, ok := com[0].(*TopKObj)
	if !ok {
		return nil
	}
	return obj.Sorted()
}
