package analytics

import (
	"math"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// KernelDensity is the Gaussian kernel density estimation application of the
// paper's window-based class (window size 25 in the evaluation). We
// implement the sliding-window Gaussian-kernel estimate: the value at every
// position is re-estimated as the kernel-weighted combination of its window
// (a Nadaraya–Watson smoother with a positional Gaussian kernel). A
// value-space KDE cannot merge across partition boundaries — a contributor
// on one node cannot read a window center on another — so the positional
// kernel is the variant that preserves the paper's memory and communication
// behaviour; see DESIGN.md.
type KernelDensity struct {
	Window
	// Bandwidth is the Gaussian sigma in element positions; zero defaults
	// to Size/5.
	Bandwidth float64
}

// NewKernelDensity creates the estimator; see NewMovingAverage for the
// window parameters.
func NewKernelDensity(size, total, base int, trigger bool, bandwidth float64) *KernelDensity {
	k := &KernelDensity{Window: newWindow(size, total, base, trigger), Bandwidth: bandwidth}
	if k.Bandwidth <= 0 {
		k.Bandwidth = float64(size) / 5
	}
	return k
}

// weight returns the Gaussian kernel weight for an offset from the window
// center.
func (k *KernelDensity) weight(offset int) float64 {
	z := float64(offset) / k.Bandwidth
	return math.Exp(-z * z / 2)
}

// NewRedObj implements core.Analytics.
func (k *KernelDensity) NewRedObj() core.RedObj { return &WeightedObj{} }

// Accumulate implements core.Analytics: the contribution's weight depends
// on its offset from the window center (the key).
func (k *KernelDensity) Accumulate(key int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*WeightedObj)
	w := k.weight(k.Base + c.Start - key)
	o.WSum += w * data[c.Start]
	o.Weight += w
	o.Count++
	o.Expected = k.expected(key)
}

// Merge implements core.Analytics.
func (k *KernelDensity) Merge(src, dst core.RedObj) {
	s, d := src.(*WeightedObj), dst.(*WeightedObj)
	d.WSum += s.WSum
	d.Weight += s.Weight
	d.Count += s.Count
	if s.Expected > d.Expected {
		d.Expected = s.Expected
	}
}

// Convert implements core.Converter: the normalized kernel estimate.
func (k *KernelDensity) Convert(obj core.RedObj, out *float64) {
	o := obj.(*WeightedObj)
	if o.Weight != 0 {
		*out = o.WSum / o.Weight
	}
}
