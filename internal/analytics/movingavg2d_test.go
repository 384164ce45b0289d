package analytics

import (
	"math"
	"testing"

	"github.com/scipioneer/smart/internal/core"
)

func naive2DAverage(in []float64, nx, ny, nz, half int) []float64 {
	out := make([]float64, len(in))
	plane := nx * ny
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				sum, n := 0.0, 0
				for yy := max(y-half, 0); yy <= min(y+half, ny-1); yy++ {
					for xx := max(x-half, 0); xx <= min(x+half, nx-1); xx++ {
						sum += in[z*plane+yy*nx+xx]
						n++
					}
				}
				out[z*plane+y*nx+x] = sum / float64(n)
			}
		}
	}
	return out
}

func TestMovingAverage2DMatchesNaive(t *testing.T) {
	const nx, ny, nz, half = 12, 10, 3, 2
	in := synth(nx*ny*nz, func(i int) float64 { return math.Sin(float64(i)/5) + float64(i%7) })
	want := naive2DAverage(in, nx, ny, nz, half)
	for _, trigger := range []bool{false, true} {
		app := NewMovingAverage2D(nx, ny, half, trigger)
		s := core.MustNewScheduler[float64, float64](app, args(3, 1, 1))
		out := make([]float64, len(in))
		if err := s.Run(in, out); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(out[i]-want[i]) > 1e-9 {
				t.Fatalf("trigger=%v: out[%d] = %v, want %v", trigger, i, out[i], want[i])
			}
		}
	}
}

func TestMovingAverage2DTriggerBoundsState(t *testing.T) {
	const nx, ny, half = 48, 48, 3
	in := synth(nx*ny, func(i int) float64 { return float64(i % 13) })
	run := func(trigger bool) *core.Stats {
		app := NewMovingAverage2D(nx, ny, half, trigger)
		s := core.MustNewScheduler[float64, float64](app, args(1, 1, 1))
		out := make([]float64, len(in))
		if err := s.Run(in, out); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	off := run(false)
	on := run(true)
	if on.EmittedEarly == 0 {
		t.Fatal("nothing emitted early")
	}
	// With row-major traversal a patch completes once its last row's last
	// element arrives, so the live state stays near a band of rows, far
	// below the full plane.
	if on.MaxLiveRedObjs*4 > off.MaxLiveRedObjs {
		t.Fatalf("live objects: trigger %d vs plain %d — want >=4x reduction",
			on.MaxLiveRedObjs, off.MaxLiveRedObjs)
	}
}

func TestMovingAverage2DConstField(t *testing.T) {
	const nx, ny = 9, 7
	in := synth(nx*ny, func(int) float64 { return 4.25 })
	app := NewMovingAverage2D(nx, ny, 2, true)
	s := core.MustNewScheduler[float64, float64](app, args(2, 1, 1))
	out := make([]float64, len(in))
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-4.25) > 1e-12 {
			t.Fatalf("constant field changed at %d: %v", i, v)
		}
	}
}

func TestMovingAverage2DValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid geometry accepted")
		}
	}()
	NewMovingAverage2D(0, 4, 1, false)
}
