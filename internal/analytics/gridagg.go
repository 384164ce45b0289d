package analytics

import (
	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// GridAgg is the visualization-class application: grid aggregation groups
// the elements within a grid of GridSize consecutive elements into a single
// element (their mean), producing a multi-resolution view of the field
// (paper Section 5.1, grid size 1,000).
type GridAgg struct {
	// GridSize is the number of consecutive elements per grid cell.
	GridSize int
	// Base is the global index of this process's first element, so grid
	// cells are numbered globally across a distributed array.
	Base int
}

// NewGridAgg creates the application; it panics on a non-positive grid.
func NewGridAgg(gridSize, base int) *GridAgg {
	if gridSize <= 0 {
		panic("analytics: grid size must be positive")
	}
	return &GridAgg{GridSize: gridSize, Base: base}
}

// NewRedObj implements core.Analytics.
func (g *GridAgg) NewRedObj() core.RedObj { return &SumCountObj{} }

// GenKey implements core.Keyer: the key is the global grid cell id.
func (g *GridAgg) GenKey(c chunk.Chunk, _ []float64) int {
	return (g.Base + c.Start) / g.GridSize
}

// Accumulate implements core.Analytics.
func (g *GridAgg) Accumulate(_ int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*SumCountObj)
	o.Sum += data[c.Start]
	o.Count++
}

// Merge implements core.Analytics.
func (g *GridAgg) Merge(src, dst core.RedObj) {
	s, d := src.(*SumCountObj), dst.(*SumCountObj)
	d.Sum += s.Sum
	d.Count += s.Count
}

// Convert implements core.Converter: the aggregated element is the cell mean.
func (g *GridAgg) Convert(obj core.RedObj, out *float64) {
	o := obj.(*SumCountObj)
	if o.Count > 0 {
		*out = o.Sum / float64(o.Count)
	}
}
