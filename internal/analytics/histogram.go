package analytics

import (
	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// Histogram is the statistical-analytics application: an equi-width
// histogram over a known value range (paper Listing 3; 100–1,200 buckets in
// the evaluation). Values outside [Min, Max) are clamped into the first or
// last bucket.
type Histogram struct {
	// Min is the lower edge of the first bucket.
	Min float64
	// Width is the bucket width.
	Width float64
	// Buckets is the bucket count.
	Buckets int
}

// NewHistogram creates an equi-width histogram over [min, max) with the
// given number of buckets.
func NewHistogram(min, max float64, buckets int) *Histogram {
	if buckets <= 0 || max <= min {
		panic("analytics: invalid histogram range")
	}
	return &Histogram{Min: min, Width: (max - min) / float64(buckets), Buckets: buckets}
}

// NewRedObj implements core.Analytics.
func (h *Histogram) NewRedObj() core.RedObj { return &CountObj{} }

// GenKey implements core.Keyer: the bucket id of the element's value.
func (h *Histogram) GenKey(c chunk.Chunk, data []float64) int {
	k := int((data[c.Start] - h.Min) / h.Width)
	if k < 0 {
		return 0
	}
	if k >= h.Buckets {
		return h.Buckets - 1
	}
	return k
}

// Accumulate implements core.Analytics.
func (h *Histogram) Accumulate(_ int, _ chunk.Chunk, _ []float64, obj core.RedObj) {
	obj.(*CountObj).Count++
}

// Merge implements core.Analytics.
func (h *Histogram) Merge(src, dst core.RedObj) {
	dst.(*CountObj).Count += src.(*CountObj).Count
}

// Convert implements core.Converter.
func (h *Histogram) Convert(obj core.RedObj, out *int64) {
	*out = obj.(*CountObj).Count
}
