package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/mpi"
)

// faultyObj fails to marshal or unmarshal on demand, for error-path tests.
type faultyObj struct {
	n           int64
	failMarshal bool
}

var errMarshal = errors.New("injected marshal failure")

func (f *faultyObj) Clone() RedObj { cp := *f; return &cp }
func (f *faultyObj) MarshalBinary() ([]byte, error) {
	if f.failMarshal {
		return nil, errMarshal
	}
	return []byte{byte(f.n)}, nil
}
func (f *faultyObj) UnmarshalBinary(b []byte) error {
	if len(b) != 1 {
		return fmt.Errorf("faultyObj: bad length")
	}
	f.n = int64(b[0])
	return nil
}

// faultyApp counts elements into faulty objects.
type faultyApp struct{ failMarshal bool }

func (a faultyApp) NewRedObj() RedObj                                  { return &faultyObj{failMarshal: a.failMarshal} }
func (a faultyApp) GenKey(chunk.Chunk, []int) int                      { return 0 }
func (a faultyApp) Accumulate(_ int, _ chunk.Chunk, _ []int, o RedObj) { o.(*faultyObj).n++ }
func (a faultyApp) Merge(src, dst RedObj)                              { dst.(*faultyObj).n += src.(*faultyObj).n }

func TestGlobalCombineMarshalErrorPropagates(t *testing.T) {
	comms := mpi.NewWorld(2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[r].Close()
			s := MustNewScheduler[int, int64](faultyApp{failMarshal: true},
				SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1, Comm: comms[r]})
			errs[r] = s.Run(make([]int, 10), nil)
		}()
	}
	wg.Wait()
	// Global combination streams shard segments up the reduction tree, so
	// only ranks that serialize (the senders) observe the marshal error
	// directly; their peers see the aborted stream as a transport failure.
	// Every rank must still fail, keep the phase context, and at least one
	// rank must surface the injected error itself.
	sawInjected := false
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: run succeeded despite injected marshal failure", r)
			continue
		}
		if !strings.Contains(err.Error(), "global combination") {
			t.Errorf("rank %d: error lost its phase context: %v", r, err)
		}
		sawInjected = sawInjected || errors.Is(err, errMarshal)
	}
	if !sawInjected {
		t.Errorf("no rank surfaced the injected marshal failure: %v", errs)
	}
}

func TestEncodeCombinationMapMarshalError(t *testing.T) {
	s := MustNewScheduler[int, int64](faultyApp{failMarshal: true},
		SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := s.Run(make([]int, 5), nil); err != nil {
		t.Fatalf("single-process run should not serialize: %v", err)
	}
	if _, err := s.EncodeCombinationMap(); !errors.Is(err, errMarshal) {
		t.Fatalf("encode: %v, want injected failure", err)
	}
}

func TestDecodeCombinationMapError(t *testing.T) {
	s := MustNewScheduler[int, int64](faultyApp{}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := s.DecodeCombinationMap([]byte{1, 2, 3}); err == nil {
		t.Fatal("junk decode accepted")
	}

	// The scheduler's own frame, truncated: every entry but the last one
	// decodes, so a partial decode or merge would show in the bytes. Each
	// decode path must reject it and leave the map as it was.
	dst := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
	if err := dst.Run(histInput(100), nil); err != nil {
		t.Fatal(err)
	}
	before, err := dst.EncodeCombinationMap()
	if err != nil {
		t.Fatal(err)
	}
	truncated := before[:len(before)-3]
	ck := filepath.Join(t.TempDir(), "truncated.ck")
	if err := os.WriteFile(ck, append(append([]byte{}, checkpointMagic...), truncated...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"DecodeCombinationMap", func() error { return dst.DecodeCombinationMap(truncated) }},
		{"MergeEncodedCombinationMap", func() error { return dst.MergeEncodedCombinationMap(truncated) }},
		{"ReadCheckpoint", func() error { return dst.ReadCheckpoint(ck) }},
	} {
		if err := tc.decode(); err == nil {
			t.Errorf("%s accepted a truncated frame", tc.name)
		}
		after, err := dst.EncodeCombinationMap()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Errorf("%s changed the combination map on a failed decode", tc.name)
		}
	}
}

func TestDistributedRunOverTCP(t *testing.T) {
	// The full scheduler pipeline over the TCP transport: same result as
	// the in-process world.
	const ranks = 3
	comms, err := mpi.NewTCPWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	full := histInput(300)
	per := len(full) / ranks
	results := make([][]int64, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[r].Close()
			s := MustNewScheduler[int, int64](bucketApp{width: 10},
				SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1, Comm: comms[r]})
			out := make([]int64, 10)
			if err := s.Run(full[r*per:(r+1)*per], out); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = out
		}()
	}
	wg.Wait()
	want := make([]int64, 10)
	for _, v := range full {
		want[v/10]++
	}
	for r := range results {
		for b := range want {
			if results[r][b] != want[b] {
				t.Fatalf("tcp rank %d bucket %d = %d, want %d", r, b, results[r][b], want[b])
			}
		}
	}
}

func TestSpaceSharingStress(t *testing.T) {
	// A fast producer against a consumer on a tiny buffer, many steps:
	// counts must balance and no step may be lost or duplicated.
	const steps = 200
	s := MustNewScheduler[int, int64](bucketApp{width: 10},
		SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1, BufferCells: 2})
	in := histInput(50)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			if err := s.Feed(in); err != nil {
				t.Errorf("feed %d: %v", i, err)
				return
			}
		}
		s.CloseFeed()
	}()
	consumed := 0
	for {
		s.ResetCombinationMap()
		out := make([]int64, 10)
		err := s.RunShared(out)
		if err == ErrFeedClosed {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, v := range out {
			total += v
		}
		if total != 50 {
			t.Fatalf("step consumed %d elements, want 50", total)
		}
		consumed++
	}
	wg.Wait()
	if consumed != steps {
		t.Fatalf("consumed %d steps, want %d", consumed, steps)
	}
}

func TestEmptyInputRun(t *testing.T) {
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 4, ChunkSize: 1, NumIters: 1})
	out := make([]int64, 10)
	if err := s.Run(nil, out); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	for b, v := range out {
		if v != 0 {
			t.Fatalf("bucket %d = %d from empty input", b, v)
		}
	}
}

func TestNilOutSkipsConversion(t *testing.T) {
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := s.Run(histInput(10), nil); err != nil {
		t.Fatalf("nil out: %v", err)
	}
	if len(s.CombinationMap()) == 0 {
		t.Fatal("combination map empty")
	}
}
