package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
)

// ckptWorkload is recover-ckpt: a scheduler holding a grid-aggregation map
// of one key per element is checkpointed to the scratch directory and
// restored into a fresh scheduler.
//
// op = WriteCheckpoint + ReadCheckpoint into a fresh scheduler + encoding both
// maps and comparing the bytes. An element is one reduction object written
// and restored.
type ckptWorkload struct {
	seed    uint64
	sz      sizes
	scratch string
}

func newCkptWorkload(seed uint64, sz sizes, scratch string) workload {
	return &ckptWorkload{seed: seed, sz: sz, scratch: scratch}
}

type ckptInstance struct {
	w     *ckptWorkload
	dir   string
	sched *core.Scheduler[float64, float64]
	// afterWrite, when set, runs between the write and the restore; the
	// oracle test damages the file there.
	afterWrite func(path string)
}

func (w *ckptWorkload) newScheduler() (*core.Scheduler[float64, float64], error) {
	return core.NewScheduler[float64, float64](analytics.NewGridAgg(1, 0),
		core.SchedArgs{NumThreads: pinnedProcs, ChunkSize: 1})
}

func (w *ckptWorkload) build() (instance, error) {
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(w.scratch, "ckpt-")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(w.seed)))
	in := make([]float64, w.sz.CKKeys)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	sched, err := w.newScheduler()
	if err == nil {
		err = sched.Run(in, nil)
	}
	if err == nil && len(sched.CombinationMap()) != w.sz.CKKeys {
		err = fmt.Errorf("map holds %d keys, want %d", len(sched.CombinationMap()), w.sz.CKKeys)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &ckptInstance{w: w, dir: dir, sched: sched}, nil
}

func (c *ckptInstance) close() { os.RemoveAll(c.dir) }

func (c *ckptInstance) verify(*result) {} // the byte comparison is part of the op

func (c *ckptInstance) rep(res *result) error {
	rec := res.rec
	path := filepath.Join(c.dir, "map.ck")
	for i := 0; i < c.w.sz.CKOps; i++ {
		op := rec.newOp()
		root := rec.begin(0, op, otherLayer, "checkpoint round trip")
		step := func(name string, fn func() error) (time.Duration, error) {
			id := rec.begin(root, op, "core", name)
			start := time.Now()
			err := fn()
			d := time.Since(start)
			rec.end(id)
			return d, err
		}
		start := time.Now()
		write, err := step("WriteCheckpoint", func() error { return c.sched.WriteCheckpoint(path) })
		if err != nil {
			return err
		}
		if c.afterWrite != nil {
			c.afterWrite(path)
		}
		var fresh *core.Scheduler[float64, float64]
		read, err := step("ReadCheckpoint into a fresh scheduler", func() (err error) {
			if fresh, err = c.w.newScheduler(); err != nil {
				return err
			}
			return fresh.ReadCheckpoint(path)
		})
		if err != nil {
			return err
		}
		var want, got []byte
		encode, err := step("EncodeCombinationMap, both maps", func() (err error) {
			if want, err = c.sched.EncodeCombinationMap(); err != nil {
				return err
			}
			got, err = fresh.EncodeCombinationMap()
			return err
		})
		if err != nil {
			return err
		}
		equal := bytes.Equal(want, got)
		wall := time.Since(start)
		rec.end(root)

		res.op(wall.Seconds())
		res.work(c.w.sz.CKKeys, wall)
		res.checked++
		if !equal {
			res.fail("restored map differs from the original (%d vs %d encoded bytes)", len(got), len(want))
		}
		if res.tracing() {
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			res.observe("core.ckpt_write_s", write.Seconds())
			res.observe("core.ckpt_read_s", read.Seconds())
			res.observe("core.ckpt_bytes", float64(info.Size()))
			res.observe("core.encode_s", encode.Seconds()/2)
		}
	}
	return nil
}
