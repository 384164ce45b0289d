package analytics

import (
	"math"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
)

// LogReg is the feature-analytics application: binary logistic regression
// trained by batch gradient descent (paper Section 5.2: 10 iterations, 15
// dimensions). A record is Dims feature values followed by a 0/1 label, so
// ChunkSize must be Dims+1. The weight vector travels to every thread as the
// broadcast state of the single reduction object (key 0), which is exactly
// the distribution step that makes this the application with "a single
// key-value pair and trivial serialization" in Section 5.3.
type LogReg struct {
	// Dims is the feature dimensionality.
	Dims int
	// LearningRate is the gradient descent step size.
	LearningRate float64
}

// NewLogReg creates the model with the given dimensionality and step size.
func NewLogReg(dims int, learningRate float64) *LogReg {
	if dims <= 0 || learningRate <= 0 {
		panic("analytics: invalid logistic regression parameters")
	}
	return &LogReg{Dims: dims, LearningRate: learningRate}
}

// NewRedObj implements core.Analytics.
func (l *LogReg) NewRedObj() core.RedObj {
	return &GradObj{Weights: make([]float64, l.Dims), Grad: make([]float64, l.Dims)}
}

// GenKey implements core.Keyer: every record folds into key 0.
func (l *LogReg) GenKey(chunk.Chunk, []float64) int { return 0 }

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Accumulate implements core.Analytics: accumulate the per-record gradient
// of the log loss using the weights carried by the (distributed) object.
func (l *LogReg) Accumulate(_ int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*GradObj)
	x := data[c.Start : c.Start+l.Dims]
	y := data[c.Start+l.Dims]
	z := 0.0
	for i, w := range o.Weights {
		z += w * x[i]
	}
	err := sigmoid(z) - y
	for i := range o.Grad {
		o.Grad[i] += err * x[i]
	}
	o.Count++
}

// Merge implements core.Analytics: gradients and counts add; the weights are
// broadcast state and identical on both sides.
func (l *LogReg) Merge(src, dst core.RedObj) {
	s, d := src.(*GradObj), dst.(*GradObj)
	for i := range d.Grad {
		d.Grad[i] += s.Grad[i]
	}
	d.Count += s.Count
}

// ProcessExtraData implements core.ExtraDataProcessor: the extra data is the
// initial weight vector ([]float64 of length Dims, or nil for zeros). It
// only initializes an empty combination map, so repeated Runs continue
// training from the current weights.
func (l *LogReg) ProcessExtraData(extra any, com core.CombMap) {
	if len(com) > 0 {
		return
	}
	obj := l.NewRedObj().(*GradObj)
	if w, ok := extra.([]float64); ok {
		copy(obj.Weights, w)
	}
	com[0] = obj
}

// PostCombine implements core.PostCombiner: take one gradient step and reset
// the accumulators — the reset that keeps distribution sound.
func (l *LogReg) PostCombine(com core.CombMap) {
	o := com[0].(*GradObj)
	if o.Count > 0 {
		scale := l.LearningRate / float64(o.Count)
		for i := range o.Weights {
			o.Weights[i] -= scale * o.Grad[i]
		}
	}
	for i := range o.Grad {
		o.Grad[i] = 0
	}
	o.Count = 0
}

// Weights extracts the trained weight vector from a combination map.
func (l *LogReg) Weights(com core.CombMap) []float64 {
	o, ok := com[0].(*GradObj)
	if !ok {
		return nil
	}
	return append([]float64(nil), o.Weights...)
}

// Predict returns the model probability for a feature vector under weights.
func Predict(weights, x []float64) float64 {
	z := 0.0
	for i := range weights {
		z += weights[i] * x[i]
	}
	return sigmoid(z)
}
