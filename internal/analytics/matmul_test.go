package analytics

import (
	"math"
	"testing"

	"github.com/scipioneer/smart/internal/core"
)

func naiveMatMul(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	return c
}

func matInput(n int, seed float64) []float64 {
	m := make([]float64, n*n)
	for i := range m {
		m[i] = math.Sin(float64(i)*1.3 + seed)
	}
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	const n = 24
	a := matInput(n, 0)
	b := matInput(n, 7)
	want := naiveMatMul(a, b, n)
	for _, trigger := range []bool{false, true} {
		app := NewMatMul(n, b, trigger)
		s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
			NumThreads: 3, ChunkSize: 1, NumIters: 1,
		})
		out := make([]float64, n*n)
		if err := s.Run(a, out); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(out[i]-want[i]) > 1e-9 {
				t.Fatalf("trigger=%v: C[%d] = %v, want %v", trigger, i, out[i], want[i])
			}
		}
	}
}

func TestMatMulEarlyEmissionBoundsState(t *testing.T) {
	// The paper's claim: each C element receives exactly N contributions,
	// so with the trigger the live reduction objects stay near one output
	// row's worth instead of the full N^2 matrix.
	const n = 32
	a := matInput(n, 1)
	b := matInput(n, 2)
	run := func(trigger bool) *core.Stats {
		app := NewMatMul(n, b, trigger)
		s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
			NumThreads: 1, ChunkSize: 1, NumIters: 1,
		})
		out := make([]float64, n*n)
		if err := s.Run(a, out); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	off := run(false)
	on := run(true)
	if off.MaxLiveRedObjs != n*n {
		t.Fatalf("no-trigger live objects %d, want %d", off.MaxLiveRedObjs, n*n)
	}
	if on.MaxLiveRedObjs > 2*n {
		t.Fatalf("trigger live objects %d, want <= %d (one row's worth)", on.MaxLiveRedObjs, 2*n)
	}
	if on.EmittedEarly != n*n {
		t.Fatalf("emitted %d, want every element (%d)", on.EmittedEarly, n*n)
	}
}

func TestMatMulIdentity(t *testing.T) {
	const n = 8
	a := matInput(n, 3)
	eye := make([]float64, n*n)
	for i := 0; i < n; i++ {
		eye[i*n+i] = 1
	}
	app := NewMatMul(n, eye, true)
	s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: 2, ChunkSize: 1, NumIters: 1,
	})
	out := make([]float64, n*n)
	if err := s.Run(a, out); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(out[i]-a[i]) > 1e-12 {
			t.Fatalf("A*I != A at %d: %v vs %v", i, out[i], a[i])
		}
	}
}

func TestMatMulValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched B accepted")
		}
	}()
	NewMatMul(4, make([]float64, 5), false)
}
