// Package analytics implements the nine applications of the paper's
// evaluation (Section 5.1) on top of the Smart runtime, one per class of
// in-situ analytics:
//
//   - visualization: grid aggregation
//   - statistical analytics: histogram
//   - similarity analytics: mutual information
//   - feature analytics: logistic regression
//   - clustering analytics: k-means
//   - window-based analytics: moving average, moving median, Gaussian
//     kernel density estimation, and the Savitzky–Golay filter
//
// Every application is an ordinary implementation of core.Analytics: the
// same code runs in time sharing, space sharing, and offline modes.
package analytics

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/scipioneer/smart/internal/core"
)

// --- small binary codec helpers shared by the reduction objects ---

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func errTrailing(typ string) error {
	return fmt.Errorf("analytics: %s trailing bytes", typ)
}

func readF64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("analytics: truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func readI64(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("analytics: truncated int64")
	}
	return int64(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func appendF64s(b []byte, vs []float64) []byte {
	b = appendI64(b, int64(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

func readF64s(b []byte) ([]float64, []byte, error) {
	n, b, err := readI64(b)
	if err != nil {
		return nil, nil, err
	}
	if n < 0 || int64(len(b)) < 8*n {
		return nil, nil, fmt.Errorf("analytics: truncated float64 slice of %d", n)
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i], b, _ = readF64(b)
	}
	return vs, b, nil
}

// CountObj counts elements — the bucket of histogram and the cell of grid
// aggregation's counting variant (paper Listing 3).
type CountObj struct {
	Count int64
}

// AppendBinary implements core.Appender: the MarshalBinary encoding,
// appended in place so the serializer can reuse one buffer across objects.
func (c *CountObj) AppendBinary(b []byte) ([]byte, error) { return appendI64(b, c.Count), nil }

// MarshalBinary implements core.RedObj.
func (c *CountObj) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// UnmarshalBinary implements core.RedObj.
func (c *CountObj) UnmarshalBinary(b []byte) error {
	v, rest, err := readI64(b)
	if err != nil || len(rest) != 0 {
		return fmt.Errorf("analytics: CountObj payload: %w", err)
	}
	c.Count = v
	return nil
}

// SizeBytes implements core.Sized.
func (c *CountObj) SizeBytes() int { return 16 }

// NewSlab implements core.FixedSizeObj: n copies of c in one backing array.
func (c *CountObj) NewSlab(n int) []core.RedObj {
	backing := make([]CountObj, n)
	objs := make([]core.RedObj, n)
	for i := range backing {
		backing[i] = *c
		objs[i] = &backing[i]
	}
	return objs
}

// SumCountObj accumulates a sum and a count; it backs grid aggregation and
// moving average (average = Sum/Count) and carries the early-emission
// trigger of paper Listing 5: a full window has Expected contributions.
type SumCountObj struct {
	Sum   float64
	Count int64
	// Expected is the contribution count that finalizes this object; zero
	// disables the trigger.
	Expected int64
}

// AppendBinary implements core.Appender.
func (o *SumCountObj) AppendBinary(b []byte) ([]byte, error) {
	b = appendF64(b, o.Sum)
	b = appendI64(b, o.Count)
	return appendI64(b, o.Expected), nil
}

// MarshalBinary implements core.RedObj.
func (o *SumCountObj) MarshalBinary() ([]byte, error) { return o.AppendBinary(nil) }

// UnmarshalBinary implements core.RedObj.
func (o *SumCountObj) UnmarshalBinary(b []byte) error {
	var err error
	if o.Sum, b, err = readF64(b); err != nil {
		return err
	}
	if o.Count, b, err = readI64(b); err != nil {
		return err
	}
	if o.Expected, b, err = readI64(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("analytics: SumCountObj trailing bytes")
	}
	return nil
}

// Trigger implements core.Triggered.
func (o *SumCountObj) Trigger() bool { return o.Expected > 0 && o.Count == o.Expected }

// SizeBytes implements core.Sized.
func (o *SumCountObj) SizeBytes() int { return 32 }

// NewSlab implements core.FixedSizeObj.
func (o *SumCountObj) NewSlab(n int) []core.RedObj {
	backing := make([]SumCountObj, n)
	objs := make([]core.RedObj, n)
	for i := range backing {
		backing[i] = *o
		objs[i] = &backing[i]
	}
	return objs
}

// WeightedObj accumulates a weighted sum and the total weight — the object
// behind the position-weighted window convolutions (Savitzky–Golay,
// Gaussian kernel).
type WeightedObj struct {
	WSum     float64
	Weight   float64
	Count    int64
	Expected int64
}

// AppendBinary implements core.Appender.
func (o *WeightedObj) AppendBinary(b []byte) ([]byte, error) {
	b = appendF64(b, o.WSum)
	b = appendF64(b, o.Weight)
	b = appendI64(b, o.Count)
	return appendI64(b, o.Expected), nil
}

// MarshalBinary implements core.RedObj.
func (o *WeightedObj) MarshalBinary() ([]byte, error) { return o.AppendBinary(nil) }

// UnmarshalBinary implements core.RedObj.
func (o *WeightedObj) UnmarshalBinary(b []byte) error {
	var err error
	if o.WSum, b, err = readF64(b); err != nil {
		return err
	}
	if o.Weight, b, err = readF64(b); err != nil {
		return err
	}
	if o.Count, b, err = readI64(b); err != nil {
		return err
	}
	if o.Expected, b, err = readI64(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("analytics: WeightedObj trailing bytes")
	}
	return nil
}

// Trigger implements core.Triggered.
func (o *WeightedObj) Trigger() bool { return o.Expected > 0 && o.Count == o.Expected }

// SizeBytes implements core.Sized.
func (o *WeightedObj) SizeBytes() int { return 48 }

// NewSlab implements core.FixedSizeObj.
func (o *WeightedObj) NewSlab(n int) []core.RedObj {
	backing := make([]WeightedObj, n)
	objs := make([]core.RedObj, n)
	for i := range backing {
		backing[i] = *o
		objs[i] = &backing[i]
	}
	return objs
}

// ValuesObj preserves every contribution — the Θ(W) holistic object of
// moving median (paper Section 4.1).
type ValuesObj struct {
	Values   []float64
	Expected int64
}

// AppendBinary implements core.Appender.
func (o *ValuesObj) AppendBinary(b []byte) ([]byte, error) {
	b = appendF64s(b, o.Values)
	return appendI64(b, o.Expected), nil
}

// MarshalBinary implements core.RedObj.
func (o *ValuesObj) MarshalBinary() ([]byte, error) {
	return o.AppendBinary(make([]byte, 0, 8*(len(o.Values)+2)))
}

// UnmarshalBinary implements core.RedObj.
func (o *ValuesObj) UnmarshalBinary(b []byte) error {
	var err error
	if o.Values, b, err = readF64s(b); err != nil {
		return err
	}
	if o.Expected, b, err = readI64(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("analytics: ValuesObj trailing bytes")
	}
	return nil
}

// Trigger implements core.Triggered.
func (o *ValuesObj) Trigger() bool { return o.Expected > 0 && int64(len(o.Values)) == o.Expected }

// SizeBytes implements core.Sized.
func (o *ValuesObj) SizeBytes() int { return 32 + 8*cap(o.Values) }

// ClusterObj is the k-means cluster of paper Listing 4: a centroid, the
// component-wise sum of member points, and the member count.
type ClusterObj struct {
	Centroid []float64
	Sum      []float64
	Size     int64
}

// NewClusterObj creates a cluster around the given centroid.
func NewClusterObj(centroid []float64) *ClusterObj {
	return &ClusterObj{
		Centroid: append([]float64(nil), centroid...),
		Sum:      make([]float64, len(centroid)),
	}
}

// AppendBinary implements core.Appender.
func (o *ClusterObj) AppendBinary(b []byte) ([]byte, error) {
	b = appendF64s(b, o.Centroid)
	b = appendF64s(b, o.Sum)
	return appendI64(b, o.Size), nil
}

// MarshalBinary implements core.RedObj.
func (o *ClusterObj) MarshalBinary() ([]byte, error) {
	return o.AppendBinary(make([]byte, 0, 8*(len(o.Centroid)+len(o.Sum)+3)))
}

// UnmarshalBinary implements core.RedObj.
func (o *ClusterObj) UnmarshalBinary(b []byte) error {
	var err error
	if o.Centroid, b, err = readF64s(b); err != nil {
		return err
	}
	if o.Sum, b, err = readF64s(b); err != nil {
		return err
	}
	if o.Size, b, err = readI64(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("analytics: ClusterObj trailing bytes")
	}
	return nil
}

// Update recomputes the centroid from Sum and Size and resets both — the
// update() of paper Listing 4, invoked from PostCombine.
func (o *ClusterObj) Update() {
	if o.Size > 0 {
		for i := range o.Centroid {
			o.Centroid[i] = o.Sum[i] / float64(o.Size)
		}
	}
	for i := range o.Sum {
		o.Sum[i] = 0
	}
	o.Size = 0
}

// SizeBytes implements core.Sized.
func (o *ClusterObj) SizeBytes() int { return 32 + 16*len(o.Centroid) }

// GradObj is logistic regression's reduction object: the current weight
// vector (kept in the combination map, so checkpoints and the global
// combination carry it) and the accumulated gradient.
type GradObj struct {
	Weights []float64
	Grad    []float64
	Count   int64
}

// AppendBinary implements core.Appender.
func (o *GradObj) AppendBinary(b []byte) ([]byte, error) {
	b = appendF64s(b, o.Weights)
	b = appendF64s(b, o.Grad)
	return appendI64(b, o.Count), nil
}

// MarshalBinary implements core.RedObj.
func (o *GradObj) MarshalBinary() ([]byte, error) {
	return o.AppendBinary(make([]byte, 0, 8*(len(o.Weights)+len(o.Grad)+3)))
}

// UnmarshalBinary implements core.RedObj.
func (o *GradObj) UnmarshalBinary(b []byte) error {
	var err error
	if o.Weights, b, err = readF64s(b); err != nil {
		return err
	}
	if o.Grad, b, err = readF64s(b); err != nil {
		return err
	}
	if o.Count, b, err = readI64(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("analytics: GradObj trailing bytes")
	}
	return nil
}

// SizeBytes implements core.Sized.
func (o *GradObj) SizeBytes() int { return 32 + 16*len(o.Weights) }
