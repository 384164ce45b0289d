package analytics

import (
	"fmt"
	"math"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// SavitzkyGolay is the smoothing-filter application of the paper's
// window-based class: a least-squares polynomial smoother expressed as a
// fixed convolution over the window (Schafer, "What is a Savitzky-Golay
// filter?"). The convolution coefficients are derived at construction by
// solving the normal equations of the polynomial fit.
type SavitzkyGolay struct {
	Window
	// Order is the fitted polynomial order.
	Order int
	// coeffs[j+half] is the weight of the contribution at offset j.
	coeffs []float64
}

// NewSavitzkyGolay creates a filter of the given window size and polynomial
// order (order < size required).
func NewSavitzkyGolay(size, order, total, base int, trigger bool) *SavitzkyGolay {
	if order < 1 || order >= size {
		panic("analytics: Savitzky-Golay order must be in [1, size)")
	}
	s := &SavitzkyGolay{Window: newWindow(size, total, base, trigger), Order: order}
	s.coeffs = savgolCoeffs(size/2, order)
	return s
}

// savgolCoeffs computes the smoothing (0th-derivative) convolution weights
// for a window of 2*half+1 points and the given polynomial order: the first
// row of (AᵀA)⁻¹Aᵀ with A[j][p] = jᵖ.
//
// The normal matrix N[p][q] = Σ_j j^(p+q) depends only on p+q, so the
// 2·order+1 power sums are computed once, in O(window·order), with
// compensated summation (neumaierAdd): where every partial sum is exact —
// small windows — that changes no bit, and at the largest windows it keeps
// the weights accurate to ~1e-10 instead of ~1e-8 at order 15.
func savgolCoeffs(half, order int) []float64 {
	n := order + 1
	sums := make([]float64, 2*order+1)
	comp := make([]float64, len(sums))
	for j := -half; j <= half; j++ {
		pw := 1.0
		for k := range sums {
			sums[k], comp[k] = neumaierAdd(sums[k], comp[k], pw)
			pw *= float64(j)
		}
	}
	for k := range sums {
		sums[k] += comp[k]
	}
	N := make([][]float64, n)
	for p := range N {
		N[p] = sums[p : p+n]
	}
	inv := invertMatrix(N)
	coeffs := make([]float64, 2*half+1)
	for j := -half; j <= half; j++ {
		w := 0.0
		for q := 0; q < n; q++ {
			w += inv[0][q] * math.Pow(float64(j), float64(q))
		}
		coeffs[j+half] = w
	}
	return coeffs
}

// neumaierAdd adds x to the running sum s with compensation c (Neumaier's
// variant of Kahan summation); the compensated total is s + c.
func neumaierAdd(s, c, x float64) (float64, float64) {
	t := s + x
	if math.Abs(s) >= math.Abs(x) {
		return t, c + ((s - t) + x)
	}
	return t, c + ((x - t) + s)
}

// invertMatrix inverts a small dense matrix by Gauss-Jordan elimination with
// partial pivoting. It panics on a singular matrix (cannot happen for
// Savitzky-Golay normal matrices with order < window size).
func invertMatrix(m [][]float64) [][]float64 {
	n := len(m)
	// Augmented [m | I].
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, 2*n)
		copy(a[i], m[i])
		a[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			panic(fmt.Sprintf("analytics: singular normal matrix at column %d", col))
		}
		a[col], a[pivot] = a[pivot], a[col]
		p := a[col][col]
		for j := range a[col] {
			a[col][j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := range a[r] {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = a[i][n:]
	}
	return inv
}

// Coeffs returns a copy of the convolution weights, offset-indexed from
// -half at position 0.
func (s *SavitzkyGolay) Coeffs() []float64 { return append([]float64(nil), s.coeffs...) }

// NewRedObj implements core.Analytics.
func (s *SavitzkyGolay) NewRedObj() core.RedObj { return &WeightedObj{} }

// Accumulate implements core.Analytics: the convolution weight of a
// contribution is indexed by its offset from the window center (the key).
func (s *SavitzkyGolay) Accumulate(key int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*WeightedObj)
	w := s.coeffs[s.Base+c.Start-key+s.half()]
	o.WSum += w * data[c.Start]
	o.Weight += w
	o.Count++
	o.Expected = s.expected(key)
}

// Merge implements core.Analytics.
func (s *SavitzkyGolay) Merge(src, dst core.RedObj) {
	a, d := src.(*WeightedObj), dst.(*WeightedObj)
	d.WSum += a.WSum
	d.Weight += a.Weight
	d.Count += a.Count
	if a.Expected > d.Expected {
		d.Expected = a.Expected
	}
}

// Convert implements core.Converter. Interior windows have ΣWeight = 1, so
// the output is the plain convolution; truncated boundary windows are
// renormalized by the weight actually present.
func (s *SavitzkyGolay) Convert(obj core.RedObj, out *float64) {
	o := obj.(*WeightedObj)
	if math.Abs(o.Weight) > 1e-9 {
		*out = o.WSum / o.Weight
	} else {
		*out = o.WSum
	}
}
