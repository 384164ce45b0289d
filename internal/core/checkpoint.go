package core

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/scipioneer/smart/internal/codec"
)

// checkpointMagic guards against restoring a file that is not a Smart
// checkpoint. Version 1 is the raw (uncompressed) format; version 2 carries
// an encoding byte and a codec frame after the magic. Readers accept both,
// so checkpoints written by older builds — and the committed test fixtures —
// restore unchanged.
var (
	checkpointMagic  = []byte("SMARTCK1")
	checkpointMagic2 = []byte("SMARTCK2")
)

// WriteCheckpoint persists the combination map to a file in the byte-stable
// raw SMARTCK1 format (WriteCheckpointEnc picks a codec). For iterative
// analytics whose state lives entirely in the combination map (k-means
// centroids, regression weights), this checkpoints the job: a restored
// scheduler continues exactly where the saved one stopped.
func (s *Scheduler[In, Out]) WriteCheckpoint(path string) error {
	return s.WriteCheckpointEnc(path, codec.None)
}

// WriteCheckpointEnc is WriteCheckpoint with an explicit payload encoding.
// codec.None writes the legacy SMARTCK1 format bit-for-bit; any other codec
// writes SMARTCK2 with the map compressed into a codec frame — unless the
// image is tiny or incompressible, in which case the writer quietly falls
// back to the raw format (decode cost without byte savings helps nobody).
//
// The publish is crash-safe and safe against concurrent writers to the same
// path: the payload is staged in a uniquely-named temp file in the target
// directory which is fsynced before being renamed over path, and the
// directory entry is synced after the rename. A crash at any point leaves
// either the previous checkpoint or the new one — never a torn or empty
// file posing as a valid checkpoint; concurrent writers each publish a
// complete image, last rename wins. Do not call while a Run is in progress;
// the map is read without synchronization against the reduction workers.
func (s *Scheduler[In, Out]) WriteCheckpointEnc(path string, enc codec.Encoding) error {
	if !enc.Valid() {
		return fmt.Errorf("core: checkpoint encoding: %w 0x%02x", codec.ErrUnknown, byte(enc))
	}
	// The checkpoint image is serialized into a pooled buffer: its lifetime
	// ends when the file write below returns, so the buffer goes straight
	// back to the pool for the next checkpoint or global-combine round.
	bufp, reused := getEncBuf()
	if reused {
		s.met.encBufReuse.Add(1)
	}
	defer putEncBuf(bufp)
	// appendStore only reads the store, which concurrent checkpoint writers
	// to different paths rely on.
	raw, err := appendStore((*bufp)[:0], s.store)
	*bufp = raw
	if err != nil {
		return fmt.Errorf("core: checkpoint encode: %w", err)
	}

	buf := make([]byte, 0, len(checkpointMagic)+len(raw))
	if enc != codec.None && len(raw) >= codec.MinSize {
		framep := codec.GetScratch()
		defer codec.PutScratch(framep)
		frame, err := codec.AppendFrame((*framep)[:0], enc, raw)
		if err != nil {
			return fmt.Errorf("core: checkpoint compress: %w", err)
		}
		*framep = frame
		if len(frame) < len(raw) {
			buf = append(buf, checkpointMagic2...)
			buf = append(buf, frame...)
		}
	}
	if len(buf) == 0 {
		buf = append(buf, checkpointMagic...)
		buf = append(buf, raw...)
	}
	s.met.ckRawBytes.Add(int64(len(raw)))
	s.met.ckEncodedBytes.Add(int64(len(buf) - len(checkpointMagic)))

	// Stage under a unique name so concurrent writers to the same path never
	// share (and mutually truncate) one staging file.
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: checkpoint stage: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	// The rename only publishes atomically if the staged bytes are durable
	// first; without this fsync a crash can rename an empty or torn file
	// into place.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint sync: %w", err)
	}
	// CreateTemp opens mode 0600; published checkpoints keep the legacy
	// world-readable mode.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint chmod: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint publish: %w", err)
	}
	// Sync the directory so the rename itself survives a crash. Some
	// platforms (and some filesystems) refuse to fsync a directory; the
	// rename is already atomic there, so this is best-effort.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// ReadCheckpoint replaces the scheduler's accumulated state with a
// previously saved one, accepting both the raw SMARTCK1 format and the
// encoded SMARTCK2 format regardless of how this scheduler is configured to
// write. A file that fails to decode leaves the state untouched. Beyond
// swapping in the decoded combination map it resets the
// per-Run statistics, so counters from a partial run before the restore
// cannot leak into post-restore accounting. Per-thread reduction maps and
// iteration counters need no reset: reduction maps start empty at every
// iteration and iteration counters restart with every Run, so a
// restore-then-continue sequence cannot double-count (the restore-resume
// k-means test pins this invariant).
func (s *Scheduler[In, Out]) ReadCheckpoint(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: checkpoint read: %w", err)
	}
	image, err := checkpointImage(path, buf)
	if err != nil {
		return err
	}
	st, err := decodeStore(image, s.store.numShards(), s.newObj)
	if err != nil {
		return fmt.Errorf("core: checkpoint decode: %w", err)
	}
	s.store = st
	s.stats = Stats{}
	return nil
}

// checkpointImage strips the magic and, for SMARTCK2 files, decodes the
// codec frame, returning the raw serialized map. An unrecognized magic or an
// unknown encoding byte is a clear error, never a panic.
func checkpointImage(path string, buf []byte) ([]byte, error) {
	switch {
	case len(buf) >= len(checkpointMagic) && string(buf[:len(checkpointMagic)]) == string(checkpointMagic):
		return buf[len(checkpointMagic):], nil
	case len(buf) >= len(checkpointMagic2) && string(buf[:len(checkpointMagic2)]) == string(checkpointMagic2):
		raw, err := codec.DecodeFrame(nil, buf[len(checkpointMagic2):])
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("core: %s is not a Smart checkpoint", path)
	}
}
