package analytics

import (
	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// MatMul is the paper's own example of early emission beyond window
// analytics (Section 4.2): dense matrix multiplication C = A×B, where every
// output element receives a fixed number of element-wise contributions —
// exactly N for N×N matrices — so its reduction object can be emitted the
// moment the count is reached. The in-situ input is the flattened
// row-major A (one element per unit chunk); B is static application state.
type MatMul struct {
	// N is the matrix dimension (A, B, and C are all N×N).
	N int
	// B is the flattened row-major right-hand matrix.
	B []float64
	// EnableTrigger turns early emission on.
	EnableTrigger bool
}

// NewMatMul creates the application; B must be N*N elements.
func NewMatMul(n int, b []float64, trigger bool) *MatMul {
	if n <= 0 || len(b) != n*n {
		panic("analytics: B must be an N*N matrix")
	}
	return &MatMul{N: n, B: b, EnableTrigger: trigger}
}

// NewRedObj implements core.Analytics.
func (m *MatMul) NewRedObj() core.RedObj { return &SumCountObj{} }

// GenKeys implements core.MultiKeyer: A[i][k] contributes to the whole
// output row i — keys i*N+j for every column j.
func (m *MatMul) GenKeys(c chunk.Chunk, _ []float64, keys []int) []int {
	i := c.Start / m.N
	for j := 0; j < m.N; j++ {
		keys = append(keys, i*m.N+j)
	}
	return keys
}

// Accumulate implements core.Analytics: add A[i][k] * B[k][j] to C[i][j].
func (m *MatMul) Accumulate(key int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*SumCountObj)
	k := c.Start % m.N
	j := key % m.N
	o.Sum += data[c.Start] * m.B[k*m.N+j]
	o.Count++
	if m.EnableTrigger {
		o.Expected = int64(m.N)
	}
}

// Merge implements core.Analytics.
func (m *MatMul) Merge(src, dst core.RedObj) {
	s, d := src.(*SumCountObj), dst.(*SumCountObj)
	d.Sum += s.Sum
	d.Count += s.Count
	if s.Expected > d.Expected {
		d.Expected = s.Expected
	}
}

// Convert implements core.Converter: the finished C element.
func (m *MatMul) Convert(obj core.RedObj, out *float64) {
	*out = obj.(*SumCountObj).Sum
}
