package analytics

import (
	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// MovingAverage2D smooths a 2-D field (or each plane of a 3-D field) with a
// square (2H+1)×(2H+1) window — the planar counterpart of the paper's
// sliding-window analytics, natural for simulation output because unit
// chunks preserve array positional information (Section 5.8). Early
// emission applies unchanged: an interior patch has a fixed fan-in.
type MovingAverage2D struct {
	// NX and NY are the plane extents; the input may stack NZ planes.
	NX, NY int
	// Half is the window half-width (window edge = 2*Half+1).
	Half int
	// EnableTrigger turns on early emission of completed patches.
	EnableTrigger bool
}

// NewMovingAverage2D creates the smoother; extents and half-width must be
// positive.
func NewMovingAverage2D(nx, ny, half int, trigger bool) *MovingAverage2D {
	if nx <= 0 || ny <= 0 || half <= 0 {
		panic("analytics: invalid 2-D moving average geometry")
	}
	return &MovingAverage2D{NX: nx, NY: ny, Half: half, EnableTrigger: trigger}
}

// NewRedObj implements core.Analytics.
func (m *MovingAverage2D) NewRedObj() core.RedObj { return &SumCountObj{} }

// GenKeys implements core.MultiKeyer: the element at (x, y) of its plane
// contributes to every patch centered within the clamped square around it.
func (m *MovingAverage2D) GenKeys(c chunk.Chunk, _ []float64, keys []int) []int {
	plane := m.NX * m.NY
	z := c.Start / plane
	rem := c.Start % plane
	x, y := rem%m.NX, rem/m.NX
	for cy := max(y-m.Half, 0); cy <= min(y+m.Half, m.NY-1); cy++ {
		for cx := max(x-m.Half, 0); cx <= min(x+m.Half, m.NX-1); cx++ {
			keys = append(keys, z*plane+cy*m.NX+cx)
		}
	}
	return keys
}

// expected is the fan-in of the patch centered on key (clamped at plane
// borders), or 0 with the trigger disabled.
func (m *MovingAverage2D) expected(key int) int64 {
	if !m.EnableTrigger {
		return 0
	}
	rem := key % (m.NX * m.NY)
	x, y := rem%m.NX, rem/m.NX
	w := min(x+m.Half, m.NX-1) - max(x-m.Half, 0) + 1
	h := min(y+m.Half, m.NY-1) - max(y-m.Half, 0) + 1
	return int64(w * h)
}

// Accumulate implements core.Analytics.
func (m *MovingAverage2D) Accumulate(key int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*SumCountObj)
	o.Sum += data[c.Start]
	o.Count++
	o.Expected = m.expected(key)
}

// Merge implements core.Analytics.
func (m *MovingAverage2D) Merge(src, dst core.RedObj) {
	s, d := src.(*SumCountObj), dst.(*SumCountObj)
	d.Sum += s.Sum
	d.Count += s.Count
	if s.Expected > d.Expected {
		d.Expected = s.Expected
	}
}

// Convert implements core.Converter: the patch mean.
func (m *MovingAverage2D) Convert(obj core.RedObj, out *float64) {
	o := obj.(*SumCountObj)
	if o.Count > 0 {
		*out = o.Sum / float64(o.Count)
	}
}
