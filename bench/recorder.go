package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End are
// offsets from the recorder's origin. Spans of one op share Op; Parent is
// the span that caused this one (0 for an op's root span).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps the spans of the traced repetitions in memory; they are
// written out after measuring. A nil *recorder records nothing, so the
// workloads call it unconditionally and the untraced runs pay one nil check.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	ops    int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// newOp returns the identifier the spans of one op share.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add records a finished span and returns its id.
func (r *recorder) add(parent, op int, layer, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return id
}

// begin opens a span that end closes; until then its End is zero.
func (r *recorder) begin(parent, op int, layer, name string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	return r.add(parent, op, layer, name, now, r.origin)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now.Sub(r.origin)
	r.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// otherLayer labels an op's time that no span inside it covers.
const otherLayer = "other"

// layerRow is one line of a workload's layer table: the self time a layer
// contributed to the mean op.
type layerRow struct {
	Layer string
	Name  string
	PerOp time.Duration
	Share float64
}

// layerTable folds the recorded spans into self time per (layer, name),
// averaged over the ops. An op's root span is its whole interval; the root's
// own self time is what no inner span accounts for and is reported under its
// own layer (otherLayer unless the workload says what the remainder is). It
// returns the rows, the mean op time and the sum of the rows, which equals
// the mean op time when no two sibling spans overlap.
func layerTable(spans []span) (rows []layerRow, opMean, sum time.Duration) {
	self := selfTimes(spans)
	type key struct{ layer, name string }
	acc := make(map[key]time.Duration)
	var ops int
	var opTotal time.Duration
	for _, s := range spans {
		if s.Op == 0 {
			continue // calibration spans belong to no op
		}
		if s.Parent == 0 {
			ops++
			opTotal += s.End - s.Start
		}
		acc[key{s.Layer, s.Name}] += self[s.ID]
	}
	if ops == 0 {
		return nil, 0, 0
	}
	opMean = opTotal / time.Duration(ops)
	for k, d := range acc {
		per := d / time.Duration(ops)
		rows = append(rows, layerRow{Layer: k.layer, Name: k.name, PerOp: per, Share: float64(per) / float64(opMean)})
		sum += per
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].PerOp != rows[j].PerOp {
			return rows[i].PerOp > rows[j].PerOp
		}
		return rows[i].Layer+rows[i].Name < rows[j].Layer+rows[j].Name
	})
	return rows, opMean, sum
}

// writeTrace writes one JSON span per line to dir/trace-<workload>.jsonl.
func (r *recorder) writeTrace(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("trace encode: %w", err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
