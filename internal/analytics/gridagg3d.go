package analytics

import (
	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// GridAgg3D is structural grid aggregation over a 3-D field: the input is a
// [z][y][x]-major flattened array, and elements are aggregated into
// (GX × GY × GZ)-cell bricks — the SAGA-style "ad-hoc structural
// aggregation" Section 5.8 highlights as natively expressible because
// Smart's unit chunks preserve array positional information. The output is
// one mean per brick, the multi-resolution view visualization pipelines
// downsample with.
type GridAgg3D struct {
	// NX, NY, NZ are the local tile's extents (the full field when the
	// process owns everything).
	NX, NY, NZ int
	// GX, GY, GZ are the brick extents.
	GX, GY, GZ int
	// BaseY and BaseZ are the tile's global offsets, so brick ids are
	// global under 1-D (z) or 2-D (y, z) decompositions.
	BaseY, BaseZ int
	// GlobalNX and GlobalNY are the global field extents that shape the
	// brick grid; they default to NX and NY (no decomposition in x).
	GlobalNX, GlobalNY int
}

// NewGridAgg3D creates the application for a z-decomposed (or undecomposed)
// field; extents and bricks must be positive.
func NewGridAgg3D(nx, ny, nz, gx, gy, gz, baseZ int) *GridAgg3D {
	return NewGridAgg3DTile(nx, ny, nz, gx, gy, gz, 0, baseZ, nx, ny)
}

// NewGridAgg3DTile creates the application for an arbitrary (y, z) tile of
// a globalNX × globalNY × * field — the form the 2-D domain decomposition
// needs.
func NewGridAgg3DTile(nx, ny, nz, gx, gy, gz, baseY, baseZ, globalNX, globalNY int) *GridAgg3D {
	if nx <= 0 || ny <= 0 || nz <= 0 || gx <= 0 || gy <= 0 || gz <= 0 {
		panic("analytics: invalid 3-D grid aggregation extents")
	}
	if globalNX < nx || globalNY < baseY+ny {
		panic("analytics: tile exceeds the global extents")
	}
	return &GridAgg3D{
		NX: nx, NY: ny, NZ: nz, GX: gx, GY: gy, GZ: gz,
		BaseY: baseY, BaseZ: baseZ, GlobalNX: globalNX, GlobalNY: globalNY,
	}
}

// BricksX reports the brick-grid extent along x.
func (g *GridAgg3D) BricksX() int { return (g.GlobalNX + g.GX - 1) / g.GX }

// BricksY reports the brick-grid extent along y.
func (g *GridAgg3D) BricksY() int { return (g.GlobalNY + g.GY - 1) / g.GY }

// BrickID maps a global (x, y, z) coordinate to its brick key.
func (g *GridAgg3D) BrickID(x, y, z int) int {
	bx, by, bz := x/g.GX, y/g.GY, z/g.GZ
	return (bz*g.BricksY()+by)*g.BricksX() + bx
}

// NewRedObj implements core.Analytics.
func (g *GridAgg3D) NewRedObj() core.RedObj { return &SumCountObj{} }

// GenKey implements core.Keyer: recover the global (x, y, z) from the
// flattened tile position and return the global brick id.
func (g *GridAgg3D) GenKey(c chunk.Chunk, _ []float64) int {
	pos := c.Start
	x := pos % g.NX
	y := (pos/g.NX)%g.NY + g.BaseY
	z := pos/(g.NX*g.NY) + g.BaseZ
	return g.BrickID(x, y, z)
}

// Accumulate implements core.Analytics.
func (g *GridAgg3D) Accumulate(_ int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*SumCountObj)
	o.Sum += data[c.Start]
	o.Count++
}

// Merge implements core.Analytics.
func (g *GridAgg3D) Merge(src, dst core.RedObj) {
	s, d := src.(*SumCountObj), dst.(*SumCountObj)
	d.Sum += s.Sum
	d.Count += s.Count
}

// Convert implements core.Converter: the brick mean.
func (g *GridAgg3D) Convert(obj core.RedObj, out *float64) {
	o := obj.(*SumCountObj)
	if o.Count > 0 {
		*out = o.Sum / float64(o.Count)
	}
}
