package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/scipioneer/smart/internal/codec"
	"github.com/scipioneer/smart/internal/mpi"
)

// bigStateScheduler returns a scheduler whose combination map serializes
// well past codec.MinSize (one bucket per input value), ready to checkpoint.
func bigStateScheduler(t *testing.T) *Scheduler[int, int64] {
	t.Helper()
	s := MustNewScheduler[int, int64](bucketApp{width: 1}, SchedArgs{
		NumThreads: 2, ChunkSize: 1, NumIters: 1,
	})
	if err := s.Run(histInput(5000), nil); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEncBufPoolCapDoesNotRatchet(t *testing.T) {
	// One oversized round must not park its buffer in the pool: after
	// returning a giant buffer, repeated get/put cycles must never hand the
	// giant capacity back out.
	huge := make([]byte, maxPooledEncBuf+1)
	hp := &huge
	putEncBuf(hp)
	for i := 0; i < 64; i++ {
		buf, _ := getEncBuf()
		if cap(*buf) > maxPooledEncBuf {
			t.Fatalf("oversized buffer (cap %d) survived in the enc pool", cap(*buf))
		}
		putEncBuf(buf)
	}
}

func TestCheckpointEncodedRoundTrip(t *testing.T) {
	s := bigStateScheduler(t)
	wantRaw, err := s.EncodeCombinationMap()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sizes := map[codec.Encoding]int{}
	for e := codec.None; e.Valid(); e++ {
		ck := filepath.Join(dir, e.String()+".ck")
		if err := s.WriteCheckpointEnc(ck, e); err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		blob, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		sizes[e] = len(blob)
		wantMagic := checkpointMagic
		if e != codec.None {
			wantMagic = checkpointMagic2
		}
		if !bytes.HasPrefix(blob, wantMagic) {
			t.Fatalf("%s checkpoint starts with %q", e, blob[:8])
		}
		restored := MustNewScheduler[int, int64](bucketApp{width: 1}, SchedArgs{
			NumThreads: 2, ChunkSize: 1, NumIters: 1,
		})
		if err := restored.ReadCheckpoint(ck); err != nil {
			t.Fatalf("%s restore: %v", e, err)
		}
		gotRaw, err := restored.EncodeCombinationMap()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotRaw, wantRaw) {
			t.Fatalf("%s: restored state differs from saved state", e)
		}
	}
	for _, e := range []codec.Encoding{codec.Flate, codec.Block} {
		if sizes[e] >= sizes[codec.None] {
			t.Errorf("%s checkpoint is %d bytes, raw is %d — no reduction", e, sizes[e], sizes[codec.None])
		}
	}
}

func TestCheckpointTinyImageStaysLegacyFormat(t *testing.T) {
	// A sub-threshold image skips the codec even when one is configured, so
	// small checkpoints keep the byte-stable legacy format.
	s := MustNewScheduler[float64, float64](&kmeans1D{k: 2}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 2, Extra: []float64{10, 60},
	})
	var in []float64
	for i := 0; i < 100; i++ {
		in = append(in, float64(i%10), 100+float64(i%10)/10)
	}
	if err := s.Run(in, nil); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "tiny.ck")
	if err := s.WriteCheckpointEnc(ck, codec.Block); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, checkpointMagic) {
		t.Fatalf("tiny checkpoint not in legacy format: starts with %q", blob[:8])
	}
}

func TestCheckpointUnknownEncodingIsCleanError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.ck")
	blob := append(append([]byte{}, checkpointMagic2...), 0x7f, 1, 2, 3)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	err := s.ReadCheckpoint(path)
	if err == nil {
		t.Fatal("checkpoint with unknown encoding byte accepted")
	}
	if !errors.Is(err, codec.ErrUnknown) {
		t.Fatalf("error = %v, want to wrap codec.ErrUnknown", err)
	}
	if err := s.WriteCheckpointEnc(filepath.Join(dir, "out.ck"), codec.Encoding(0x7f)); !errors.Is(err, codec.ErrUnknown) {
		t.Fatalf("WriteCheckpointEnc(unknown) = %v, want to wrap codec.ErrUnknown", err)
	}
}

func TestCheckpointConcurrentWritersSamePath(t *testing.T) {
	// Writers racing on one path must each stage privately: whichever rename
	// lands last, the published file is one complete, restorable image and
	// no staging litter survives.
	dir := t.TempDir()
	ck := filepath.Join(dir, "shared.ck")
	const writers = 8
	scheds := make([]*Scheduler[int, int64], writers)
	for i := range scheds {
		s := MustNewScheduler[int, int64](bucketApp{width: 1}, SchedArgs{
			NumThreads: 1, ChunkSize: 1, NumIters: 1,
		})
		if err := s.Run(histInput(1000+i), nil); err != nil {
			t.Fatal(err)
		}
		scheds[i] = s
	}
	var wg sync.WaitGroup
	for i, s := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enc := codec.Encoding(i % 3)
			for round := 0; round < 10; round++ {
				if err := s.WriteCheckpointEnc(ck, enc); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	restored := MustNewScheduler[int, int64](bucketApp{width: 1}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 1,
	})
	if err := restored.ReadCheckpoint(ck); err != nil {
		t.Fatalf("published checkpoint is torn: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("staging file left behind: %s", e.Name())
		}
	}
}

func TestDistributedCombineByteIdenticalAcrossCodecs(t *testing.T) {
	// The global result of a 4-rank combine must not depend on the wire
	// codec: every rank's output and final serialized state must be
	// byte-identical whether segments travel raw, flate- or block-encoded.
	// bucketApp{width:1} over thousands of values keeps the streamed
	// segments comfortably above codec.MinSize, so compression really runs.
	const ranks = 4
	run := func(masks []uint32) (outs [][]int64, states [][]byte) {
		t.Helper()
		comms, err := mpi.NewTCPWorldOpts(ranks, mpi.TCPWorldOptions{CodecMasks: masks})
		if err != nil {
			t.Fatal(err)
		}
		full := histInput(4000)
		per := len(full) / ranks
		outs = make([][]int64, ranks)
		states = make([][]byte, ranks)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer comms[r].Close()
				s := MustNewScheduler[int, int64](bucketApp{width: 1},
					SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1, Comm: comms[r]})
				out := make([]int64, 100)
				if err := s.Run(full[r*per:(r+1)*per], out); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				state, err := s.EncodeCombinationMap()
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				outs[r] = out
				states[r] = state
			}()
		}
		wg.Wait()
		return outs, states
	}

	uniform := func(e codec.Encoding) []uint32 {
		masks := make([]uint32, ranks)
		for i := range masks {
			masks[i] = codec.MaskOf(e)
		}
		return masks
	}
	refOuts, refStates := run(uniform(codec.None))
	for _, e := range []codec.Encoding{codec.Flate, codec.Block} {
		outs, states := run(uniform(e))
		for r := 0; r < ranks; r++ {
			if refOuts[r] == nil || outs[r] == nil {
				t.Fatalf("%s: rank %d produced no output", e, r)
			}
			for b := range refOuts[r] {
				if outs[r][b] != refOuts[r][b] {
					t.Fatalf("%s: rank %d bucket %d = %d, raw run says %d", e, r, b, outs[r][b], refOuts[r][b])
				}
			}
			if !bytes.Equal(states[r], refStates[r]) {
				t.Fatalf("%s: rank %d final state differs from the raw run", e, r)
			}
		}
	}
}
