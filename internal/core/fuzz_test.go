package core

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeMap hardens the map-frame decoder behind global combination,
// DecodeCombinationMap and checkpoint restore: arbitrary bytes must decode
// into a store or fail — never a panic, a hang, or an absurd allocation
// (the entry-count bound).
func FuzzDecodeMap(f *testing.F) {
	// Seed with valid encodings and their mutations.
	st := newTestStore(2)
	st.insert(1, &countObj{n: 7})
	st.insert(-3, &countObj{n: 0})
	st.insert(1<<20, &countObj{n: 42})
	valid := encodeStore(f, st)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte{}, valid...), 9))

	factory := func() RedObj { return &countObj{} }
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := decodeStore(data, 3, factory)
		if err != nil {
			return
		}
		// A valid decode re-encodes to a frame that decodes to the same
		// content. (Not necessarily to data itself: a frame may repeat a key,
		// and the last copy wins.)
		re := encodeStore(t, decoded)
		back, err := decodeStore(re, 1, factory)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.size() != decoded.size() {
			t.Fatalf("roundtrip changed size: %d vs %d", back.size(), decoded.size())
		}
		if !bytes.Equal(encodeStore(t, back), re) {
			t.Fatal("re-encode of the re-decoded store changed bytes")
		}
	})
}

// FuzzCheckpointMagic ensures the checkpoint reader never mistakes
// arbitrary content for a checkpoint (and never panics on one that has the
// magic but garbage after it).
func FuzzCheckpointMagic(f *testing.F) {
	f.Add([]byte("SMARTCK1"))
	f.Add([]byte("SMARTCK1junk"))
	f.Add([]byte("not a checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := dir + "/f"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s := MustNewScheduler[int, int64](bucketApp{width: 10},
			SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
		if err := s.ReadCheckpoint(path); err == nil {
			// Acceptable only if the payload after the magic is a valid map.
			if !bytes.HasPrefix(data, checkpointMagic) {
				t.Fatal("accepted a file without the magic")
			}
		}
	})
}
