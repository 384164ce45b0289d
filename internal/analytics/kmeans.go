package analytics

import (
	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// KMeans is the clustering-analytics application of paper Listing 4:
// multi-dimensional k-means whose centroids persist in the combination map
// across iterations (and across time-steps, tracking centroid movement).
// A record is one point of Dims coordinates, so ChunkSize must be Dims. The
// extra data is the flat initial centroid matrix ([]float64 of length
// K*Dims).
type KMeans struct {
	// K is the number of clusters.
	K int
	// Dims is the point dimensionality.
	Dims int
	// centroids caches the current centroid matrix between the combination
	// map updates (ProcessExtraData, PostCombine) so the hot GenKey path
	// avoids per-point map lookups. Both writers run in the scheduler's
	// single-threaded phases.
	centroids []float64
}

// NewKMeans creates the application; it panics on non-positive parameters.
func NewKMeans(k, dims int) *KMeans {
	if k <= 0 || dims <= 0 {
		panic("analytics: invalid k-means parameters")
	}
	return &KMeans{K: k, Dims: dims}
}

// NewRedObj implements core.Analytics.
func (km *KMeans) NewRedObj() core.RedObj {
	return &ClusterObj{Centroid: make([]float64, km.Dims), Sum: make([]float64, km.Dims)}
}

// GenKey implements core.Keyer: the id of the nearest centroid, read from
// the cached centroid matrix. ProcessExtraData, which the runtime calls
// before every run's first reduction phase, sets the cache and PostCombine
// refreshes it, so it is always current.
func (km *KMeans) GenKey(c chunk.Chunk, data []float64) int {
	cs := km.centroids
	p := data[c.Start : c.Start+km.Dims]
	best, bestD := 0, -1.0
	for k := 0; k < km.K; k++ {
		d := 0.0
		row := cs[k*km.Dims : (k+1)*km.Dims]
		for i, v := range p {
			diff := v - row[i]
			d += diff * diff
		}
		if bestD < 0 || d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// snapshot flattens the combination map's centroids.
func (km *KMeans) snapshot(com core.CombMap) []float64 {
	cs := make([]float64, km.K*km.Dims)
	for k := 0; k < km.K; k++ {
		copy(cs[k*km.Dims:(k+1)*km.Dims], com[k].(*ClusterObj).Centroid)
	}
	return cs
}

// Accumulate implements core.Analytics: vector-add the point onto the
// cluster's Sum and bump its Size.
func (km *KMeans) Accumulate(_ int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*ClusterObj)
	for i := 0; i < km.Dims; i++ {
		o.Sum[i] += data[c.Start+i]
	}
	o.Size++
}

// Merge implements core.Analytics.
func (km *KMeans) Merge(src, dst core.RedObj) {
	s, d := src.(*ClusterObj), dst.(*ClusterObj)
	for i := range d.Sum {
		d.Sum[i] += s.Sum[i]
	}
	d.Size += s.Size
}

// ProcessExtraData implements core.ExtraDataProcessor: load the initial
// centroids into an empty combination map.
func (km *KMeans) ProcessExtraData(extra any, com core.CombMap) {
	if len(com) > 0 {
		// Already initialized (repeated Runs): just refresh the cache.
		km.centroids = km.snapshot(com)
		return
	}
	flat, ok := extra.([]float64)
	if !ok || len(flat) != km.K*km.Dims {
		panic("analytics: k-means extra data must be a []float64 of length K*Dims")
	}
	for k := 0; k < km.K; k++ {
		com[k] = NewClusterObj(flat[k*km.Dims : (k+1)*km.Dims])
	}
	km.centroids = km.snapshot(com)
}

// PostCombine implements core.PostCombiner: update every centroid for the
// next iteration (ClusterObj.Update resets the accumulators).
func (km *KMeans) PostCombine(com core.CombMap) {
	for _, obj := range com {
		obj.(*ClusterObj).Update()
	}
	km.centroids = km.snapshot(com)
}

// Convert implements core.Converter: the output slot receives a copy of the
// centroid coordinates.
func (km *KMeans) Convert(obj core.RedObj, out *[]float64) {
	o := obj.(*ClusterObj)
	*out = append((*out)[:0], o.Centroid...)
}

// Centroids extracts the centroid matrix from a combination map, indexed by
// cluster id.
func (km *KMeans) Centroids(com core.CombMap) [][]float64 {
	out := make([][]float64, km.K)
	for k := 0; k < km.K; k++ {
		if obj, ok := com[k].(*ClusterObj); ok {
			out[k] = append([]float64(nil), obj.Centroid...)
		}
	}
	return out
}
