package analytics

import (
	"math"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// MutualInfo is the similarity-analytics application: the mutual information
// between two variables, estimated from their joint equi-width histogram
// (paper Section 5.1: 100 buckets per variable, up to 10,000 joint cells).
// The input is interleaved (x, y) pairs, so ChunkSize must be 2.
type MutualInfo struct {
	// XMin/XWidth and YMin/YWidth define the per-variable bucket grids.
	XMin, XWidth float64
	YMin, YWidth float64
	// XBuckets and YBuckets are the per-variable bucket counts.
	XBuckets, YBuckets int
}

// NewMutualInfo creates the joint histogram over [xmin,xmax) × [ymin,ymax)
// with bx × by cells.
func NewMutualInfo(xmin, xmax float64, bx int, ymin, ymax float64, by int) *MutualInfo {
	if bx <= 0 || by <= 0 || xmax <= xmin || ymax <= ymin {
		panic("analytics: invalid mutual information grid")
	}
	return &MutualInfo{
		XMin: xmin, XWidth: (xmax - xmin) / float64(bx), XBuckets: bx,
		YMin: ymin, YWidth: (ymax - ymin) / float64(by), YBuckets: by,
	}
}

func clampBucket(v, min, width float64, n int) int {
	k := int((v - min) / width)
	if k < 0 {
		return 0
	}
	if k >= n {
		return n - 1
	}
	return k
}

// NewRedObj implements core.Analytics.
func (m *MutualInfo) NewRedObj() core.RedObj { return &CountObj{} }

// GenKey implements core.Keyer: the joint cell id ix*YBuckets + iy.
func (m *MutualInfo) GenKey(c chunk.Chunk, data []float64) int {
	ix := clampBucket(data[c.Start], m.XMin, m.XWidth, m.XBuckets)
	iy := clampBucket(data[c.Start+1], m.YMin, m.YWidth, m.YBuckets)
	return ix*m.YBuckets + iy
}

// Accumulate implements core.Analytics.
func (m *MutualInfo) Accumulate(_ int, _ chunk.Chunk, _ []float64, obj core.RedObj) {
	obj.(*CountObj).Count++
}

// Merge implements core.Analytics.
func (m *MutualInfo) Merge(src, dst core.RedObj) {
	dst.(*CountObj).Count += src.(*CountObj).Count
}

// Convert implements core.Converter: the raw joint cell count.
func (m *MutualInfo) Convert(obj core.RedObj, out *int64) {
	*out = obj.(*CountObj).Count
}

// MI computes the mutual information I(X;Y) in nats from a combination map
// holding the joint histogram — the post-processing step a Smart pipeline
// performs on the converged global result. The sum runs over the joint cells
// in key order, so equal maps give equal bits.
func (m *MutualInfo) MI(com core.CombMap) float64 {
	joint := make([]float64, m.XBuckets*m.YBuckets)
	px := make([]float64, m.XBuckets)
	py := make([]float64, m.YBuckets)
	var total float64
	for k, obj := range com {
		n := float64(obj.(*CountObj).Count)
		joint[k] = n
		px[k/m.YBuckets] += n
		py[k%m.YBuckets] += n
		total += n
	}
	if total == 0 {
		return 0
	}
	mi := 0.0
	for k, n := range joint {
		if n == 0 {
			continue
		}
		pxy := n / total
		marginal := (px[k/m.YBuckets] / total) * (py[k%m.YBuckets] / total)
		mi += pxy * math.Log(pxy/marginal)
	}
	return mi
}
