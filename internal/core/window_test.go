package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestRunWindowByteIdentical pins the streaming contract of the re-entrant
// window entry point: one scheduler recycled across a sequence of windows
// must produce, for every window, exactly the bytes a fresh scheduler
// produces over that window's elements — against the serial pipeline (one
// thread, one shard) as the fresh reference, with window lengths that shrink
// and grow so the store's retained arrays are exercised at both transitions.
// The subtest is named for the schedule it runs, the static split.
func TestRunWindowByteIdentical(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		full := histInput(6000)
		windows := [][2]int{{0, 1000}, {1000, 3000}, {3000, 3100}, {3100, 6000}}
		serial := SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1, CombineShards: 1}
		args := SchedArgs{NumThreads: 3, ChunkSize: 1, NumIters: 1, CombineShards: 4}
		recycled := MustNewScheduler[int, int64](bucketApp{width: 10}, args)
		for wi, w := range windows {
			in := full[w[0]:w[1]]
			outR := make([]int64, 10)
			if err := recycled.RunWindowContext(context.Background(), in, outR); err != nil {
				t.Fatal(err)
			}
			encR, err := recycled.EncodeCombinationMap()
			if err != nil {
				t.Fatal(err)
			}
			fresh := MustNewScheduler[int, int64](bucketApp{width: 10}, serial)
			outF := make([]int64, 10)
			if err := fresh.Run(in, outF); err != nil {
				t.Fatal(err)
			}
			encF, err := fresh.EncodeCombinationMap()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encR, encF) {
				t.Errorf("window %d: recycled encoding differs from fresh scheduler", wi)
			}
			if !reflect.DeepEqual(outR, outF) {
				t.Errorf("window %d: recycled output %v, fresh %v", wi, outR, outF)
			}
		}
	})
}

// TestRunWindow2ByteIdentical is the gen_keys (window-analytics) variant:
// fixed-size tumbling windows through one recycled scheduler versus a fresh
// serial-pipeline scheduler per window. The reference keeps the two threads'
// split grouping because the window sums are floating-point.
func TestRunWindow2ByteIdentical(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		const winLen = 500
		full := make([]float64, 4*winLen)
		for i := range full {
			full[i] = float64((i*13)%97) / 7
		}
		serial := SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1, CombineShards: 1}
		args := SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1, CombineShards: 4}
		app := movingSumApp{half: 3, total: winLen}
		recycled := MustNewScheduler[float64, float64](app, args)
		for wi := 0; wi < len(full)/winLen; wi++ {
			in := full[wi*winLen : (wi+1)*winLen]
			outR := make([]float64, winLen)
			if err := recycled.RunWindow2Context(context.Background(), in, outR); err != nil {
				t.Fatal(err)
			}
			encR, err := recycled.EncodeCombinationMap()
			if err != nil {
				t.Fatal(err)
			}
			fresh := MustNewScheduler[float64, float64](app, serial)
			outF := make([]float64, winLen)
			if err := fresh.Run2(in, outF); err != nil {
				t.Fatal(err)
			}
			encF, err := fresh.EncodeCombinationMap()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encR, encF) {
				t.Errorf("window %d: recycled encoding differs from fresh scheduler", wi)
			}
			if !reflect.DeepEqual(outR, outF) {
				t.Errorf("window %d: recycled output differs from fresh", wi)
			}
		}
	})
}
