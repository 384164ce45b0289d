package analytics

import (
	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// Window carries the geometry shared by the window-based applications:
// every element at global position p contributes to the windows centered on
// positions [p-half, p+half], clamped to the array ends (paper Listing 5).
type Window struct {
	// Size is the window length; it must be odd so windows are centered.
	Size int
	// Total is the global array length (window keys are global positions).
	Total int
	// Base is the global position of this process's first local element.
	Base int
	// EnableTrigger turns on early emission of finalized windows
	// (Section 4.2). Disabling it reproduces the baseline of Figure 11.
	EnableTrigger bool
}

func newWindow(size, total, base int, trigger bool) Window {
	if size <= 0 || size%2 == 0 {
		panic("analytics: window size must be positive and odd")
	}
	if total <= 0 {
		panic("analytics: total length must be positive")
	}
	return Window{Size: size, Total: total, Base: base, EnableTrigger: trigger}
}

func (w Window) half() int { return w.Size / 2 }

// GenKeys implements core.MultiKeyer for all window applications.
func (w Window) GenKeys(c chunk.Chunk, _ []float64, keys []int) []int {
	center := w.Base + c.Start
	lo := max(center-w.half(), 0)
	hi := min(center+w.half(), w.Total-1)
	for k := lo; k <= hi; k++ {
		keys = append(keys, k)
	}
	return keys
}

// expected returns the early-emission target contribution count for a
// window, or 0 when the trigger is disabled. A full interior window has Size
// contributions; windows clamped at the array ends have fewer. (The paper's
// Listing 5 uses the constant WIN_SIZE; deriving the clamped count also lets
// boundary windows of the global array emit early.)
func (w Window) expected(key int) int64 {
	if !w.EnableTrigger {
		return 0
	}
	lo := max(key-w.half(), 0)
	hi := min(key+w.half(), w.Total-1)
	return int64(hi - lo + 1)
}

// MovingAverage computes the mean of every window snapshot — the paper's
// canonical window application (Listing 5).
type MovingAverage struct {
	Window
}

// NewMovingAverage creates a moving average over windows of the given size
// on a global array of total elements, of which this process owns the range
// starting at base.
func NewMovingAverage(size, total, base int, trigger bool) *MovingAverage {
	return &MovingAverage{Window: newWindow(size, total, base, trigger)}
}

// NewRedObj implements core.Analytics.
func (m *MovingAverage) NewRedObj() core.RedObj { return &SumCountObj{} }

// Accumulate implements core.Analytics.
func (m *MovingAverage) Accumulate(key int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*SumCountObj)
	o.Sum += data[c.Start]
	o.Count++
	o.Expected = m.expected(key)
}

// Merge implements core.Analytics.
func (m *MovingAverage) Merge(src, dst core.RedObj) {
	s, d := src.(*SumCountObj), dst.(*SumCountObj)
	d.Sum += s.Sum
	d.Count += s.Count
	if s.Expected > d.Expected {
		d.Expected = s.Expected
	}
}

// Convert implements core.Converter.
func (m *MovingAverage) Convert(obj core.RedObj, out *float64) {
	o := obj.(*SumCountObj)
	if o.Count > 0 {
		*out = o.Sum / float64(o.Count)
	}
}

// MovingMedian computes the median of every window snapshot. The median is
// holistic — the reduction object must preserve all Θ(W) contributions
// (paper Section 4.1) — which makes this the most memory-hungry application
// and the Figure 11b workload.
type MovingMedian struct {
	Window
}

// NewMovingMedian creates a moving median; see NewMovingAverage for the
// parameters.
func NewMovingMedian(size, total, base int, trigger bool) *MovingMedian {
	return &MovingMedian{Window: newWindow(size, total, base, trigger)}
}

// NewRedObj implements core.Analytics.
func (m *MovingMedian) NewRedObj() core.RedObj { return &ValuesObj{} }

// Accumulate implements core.Analytics.
func (m *MovingMedian) Accumulate(key int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*ValuesObj)
	o.Values = append(o.Values, data[c.Start])
	o.Expected = m.expected(key)
}

// Merge implements core.Analytics.
func (m *MovingMedian) Merge(src, dst core.RedObj) {
	s, d := src.(*ValuesObj), dst.(*ValuesObj)
	d.Values = append(d.Values, s.Values...)
	if s.Expected > d.Expected {
		d.Expected = s.Expected
	}
}

// Convert implements core.Converter: the median of the preserved values.
func (m *MovingMedian) Convert(obj core.RedObj, out *float64) {
	o := obj.(*ValuesObj)
	if len(o.Values) == 0 {
		return
	}
	*out = median(o.Values)
}

// median returns the median of vs without mutating it.
func median(vs []float64) float64 {
	tmp := append([]float64(nil), vs...)
	// Quickselect would do; insertion sort is fine at window sizes.
	for i := 1; i < len(tmp); i++ {
		v := tmp[i]
		j := i - 1
		for j >= 0 && tmp[j] > v {
			tmp[j+1] = tmp[j]
			j--
		}
		tmp[j+1] = v
	}
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}
