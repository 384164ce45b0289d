package analytics

import (
	"math"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// Moments extends the statistical-analytics class beyond the paper's
// histogram: streaming central moments (mean, variance, skewness, kurtosis)
// per grid region, using the numerically stable pairwise update and merge
// formulas of Pébay/Chan — the textbook example of a distributive
// reduction that Smart's merge-based combination handles exactly.
type Moments struct {
	// GridSize groups consecutive elements into regions; 0 computes one
	// global set of moments (key 0).
	GridSize int
	// Base is the global index of this process's first element.
	Base int
}

// NewMoments creates the application. gridSize 0 means global moments.
func NewMoments(gridSize, base int) *Moments {
	if gridSize < 0 {
		panic("analytics: negative grid size")
	}
	return &Moments{GridSize: gridSize, Base: base}
}

// MomentsObj accumulates count and the first four centered moment sums.
type MomentsObj struct {
	N          int64
	Mean       float64
	M2, M3, M4 float64
}

// Clone implements core.RedObj.
func (m *MomentsObj) Clone() core.RedObj { cp := *m; return &cp }

// NewSlab implements core.FixedSizeObj.
func (m *MomentsObj) NewSlab(n int) []core.RedObj {
	backing := make([]MomentsObj, n)
	objs := make([]core.RedObj, n)
	for i := range backing {
		objs[i] = &backing[i]
	}
	return objs
}

// Assign implements core.FixedSizeObj.
func (m *MomentsObj) Assign(src core.RedObj) { *m = *src.(*MomentsObj) }

// AppendBinary implements core.Appender.
func (m *MomentsObj) AppendBinary(b []byte) ([]byte, error) {
	b = appendI64(b, m.N)
	b = appendF64(b, m.Mean)
	b = appendF64(b, m.M2)
	b = appendF64(b, m.M3)
	return appendF64(b, m.M4), nil
}

// MarshalBinary implements core.RedObj.
func (m *MomentsObj) MarshalBinary() ([]byte, error) {
	return m.AppendBinary(make([]byte, 0, 40))
}

// UnmarshalBinary implements core.RedObj.
func (m *MomentsObj) UnmarshalBinary(b []byte) error {
	var err error
	if m.N, b, err = readI64(b); err != nil {
		return err
	}
	if m.Mean, b, err = readF64(b); err != nil {
		return err
	}
	if m.M2, b, err = readF64(b); err != nil {
		return err
	}
	if m.M3, b, err = readF64(b); err != nil {
		return err
	}
	if m.M4, b, err = readF64(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return errTrailing("MomentsObj")
	}
	return nil
}

// SizeBytes implements core.Sized.
func (m *MomentsObj) SizeBytes() int { return 48 }

// Add folds a single observation in (Welford/Pébay single-value update).
func (m *MomentsObj) Add(x float64) {
	n1 := float64(m.N)
	m.N++
	n := float64(m.N)
	delta := x - m.Mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.Mean += deltaN
	m.M4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.M2 - 4*deltaN*m.M3
	m.M3 += term1*deltaN*(n-2) - 3*deltaN*m.M2
	m.M2 += term1
}

// Combine folds another accumulator in (Chan/Pébay pairwise merge).
func (m *MomentsObj) Combine(o *MomentsObj) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = *o
		return
	}
	na, nb := float64(m.N), float64(o.N)
	n := na + nb
	delta := o.Mean - m.Mean
	delta2 := delta * delta
	mean := m.Mean + delta*nb/n
	M2 := m.M2 + o.M2 + delta2*na*nb/n
	M3 := m.M3 + o.M3 +
		delta*delta2*na*nb*(na-nb)/(n*n) +
		3*delta*(na*o.M2-nb*m.M2)/n
	M4 := m.M4 + o.M4 +
		delta2*delta2*na*nb*(na*na-na*nb+nb*nb)/(n*n*n) +
		6*delta2*(na*na*o.M2+nb*nb*m.M2)/(n*n) +
		4*delta*(na*o.M3-nb*m.M3)/n
	m.N += o.N
	m.Mean, m.M2, m.M3, m.M4 = mean, M2, M3, M4
}

// Variance returns the population variance.
func (m *MomentsObj) Variance() float64 {
	if m.N == 0 {
		return 0
	}
	return m.M2 / float64(m.N)
}

// Skewness returns the population skewness (0 for fewer than 2 samples or
// zero variance).
func (m *MomentsObj) Skewness() float64 {
	if m.N < 2 || m.M2 == 0 {
		return 0
	}
	n := float64(m.N)
	return math.Sqrt(n) * m.M3 / math.Pow(m.M2, 1.5)
}

// Kurtosis returns the population excess kurtosis.
func (m *MomentsObj) Kurtosis() float64 {
	if m.N < 2 || m.M2 == 0 {
		return 0
	}
	n := float64(m.N)
	return n*m.M4/(m.M2*m.M2) - 3
}

// NewRedObj implements core.Analytics.
func (mo *Moments) NewRedObj() core.RedObj { return &MomentsObj{} }

// GenKey implements core.Keyer.
func (mo *Moments) GenKey(c chunk.Chunk, _ []float64) int {
	if mo.GridSize == 0 {
		return 0
	}
	return (mo.Base + c.Start) / mo.GridSize
}

// Accumulate implements core.Analytics.
func (mo *Moments) Accumulate(_ int, c chunk.Chunk, data []float64, obj core.RedObj) {
	obj.(*MomentsObj).Add(data[c.Start])
}

// Merge implements core.Analytics.
func (mo *Moments) Merge(src, dst core.RedObj) {
	dst.(*MomentsObj).Combine(src.(*MomentsObj))
}

// Convert implements core.Converter: out receives the region's variance;
// richer statistics are read from the combination map's MomentsObj directly.
func (mo *Moments) Convert(obj core.RedObj, out *float64) {
	*out = obj.(*MomentsObj).Variance()
}
