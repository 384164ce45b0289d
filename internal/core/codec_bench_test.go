package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/codec"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/obs"
)

// vecObj is a k-means-shaped reduction object: per-cluster coordinate sums
// plus a member count, the state shape the paper's k-means (and any centroid
// method) ships through global combination.
type vecObj struct {
	sums  []float64
	count int64
}

func (v *vecObj) MarshalBinary() ([]byte, error) { return v.AppendBinary(nil) }

func (v *vecObj) AppendBinary(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v.sums)))
	for _, s := range v.sums {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(s*16)))
	}
	return binary.LittleEndian.AppendUint64(b, uint64(v.count)), nil
}

func (v *vecObj) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("vecObj: short payload")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) != 8*n+8 {
		return fmt.Errorf("vecObj: %d bytes for %d dims", len(data), n)
	}
	v.sums = make([]float64, n)
	for i := range v.sums {
		v.sums[i] = float64(int64(binary.LittleEndian.Uint64(data[8*i:]))) / 16
	}
	v.count = int64(binary.LittleEndian.Uint64(data[8*n:]))
	return nil
}

// vecApp exists to give vecObj maps a merge for the codec benchmarks; its
// reduction-side hooks are never exercised there.
type vecApp struct{ dims int }

func (a vecApp) NewRedObj() RedObj                                           { return &vecObj{} }
func (a vecApp) GenKey(c chunk.Chunk, data []float64) int                    { return 0 }
func (a vecApp) Accumulate(_ int, c chunk.Chunk, data []float64, obj RedObj) {}
func (a vecApp) Merge(src, dst RedObj) {
	s, d := src.(*vecObj), dst.(*vecObj)
	if len(d.sums) < len(s.sums) {
		d.sums = append(d.sums, make([]float64, len(s.sums)-len(d.sums))...)
	}
	for i := range s.sums {
		d.sums[i] += s.sums[i]
	}
	d.count += s.count
}

// BenchmarkCombineCodec measures the 4-rank streamed global combine over the
// TCP transport under every wire codec, on the two map shapes the paper's
// evaluation leans on: a histogram (many integer-count objects) and k-means
// cluster state (coordinate-sum vectors on a data grid). Beyond ns/op it
// reports the honest wire cost per operation — rawbytes/op handed to the
// sockets and wirebytes/op after encoding — so BENCH_combine.json records
// the compressed-vs-raw ratio, not just the speed.
func BenchmarkCombineCodec(b *testing.B) {
	const ranks = 4
	histTemplate := make(CombMap, 8192)
	for k := 0; k < 8192; k++ {
		histTemplate[k] = &countObj{n: int64(k % 97)}
	}
	kmTemplate := make(CombMap, 256)
	for k := 0; k < 256; k++ {
		v := &vecObj{sums: make([]float64, 16), count: int64(100 + k)}
		for d := range v.sums {
			// Coordinates on a 1/16 grid, as simulation meshes produce —
			// structured data the codec must actually exploit.
			v.sums[d] = float64((k*d)%128) / 16
		}
		kmTemplate[k] = v
	}

	for _, enc := range []codec.Encoding{codec.None, codec.Flate, codec.Block} {
		masks := make([]uint32, ranks)
		for i := range masks {
			masks[i] = codec.MaskOf(enc)
		}
		run := func(b *testing.B, combine func(r int) error, reset func()) {
			b.Helper()
			b.ReportAllocs()
			rawBefore, wireBefore := tcpWireCounters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reset()
				b.StartTimer()
				var wg sync.WaitGroup
				errs := make([]error, ranks)
				for r := 0; r < ranks; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[r] = combine(r)
					}()
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						b.Fatalf("rank %d: %v", r, err)
					}
				}
			}
			b.StopTimer()
			rawAfter, wireAfter := tcpWireCounters()
			b.ReportMetric(float64(rawAfter-rawBefore)/float64(b.N), "rawbytes/op")
			b.ReportMetric(float64(wireAfter-wireBefore)/float64(b.N), "wirebytes/op")
		}

		b.Run(fmt.Sprintf("map=histogram/codec=%s", enc), func(b *testing.B) {
			comms, err := mpi.NewTCPWorldOpts(ranks, mpi.TCPWorldOptions{CodecMasks: masks})
			if err != nil {
				b.Fatal(err)
			}
			defer closeAll(comms)
			scheds := make([]*Scheduler[int, int64], ranks)
			for r := range scheds {
				scheds[r] = MustNewScheduler[int, int64](benchApp,
					SchedArgs{NumThreads: 2, ChunkSize: 1, Comm: comms[r]})
			}
			run(b,
				func(r int) error { return scheds[r].globalCombine() },
				func() {
					for _, s := range scheds {
						s.store.reseed(cloneMap(histTemplate))
					}
				})
		})
		b.Run(fmt.Sprintf("map=kmeans/codec=%s", enc), func(b *testing.B) {
			comms, err := mpi.NewTCPWorldOpts(ranks, mpi.TCPWorldOptions{CodecMasks: masks})
			if err != nil {
				b.Fatal(err)
			}
			defer closeAll(comms)
			scheds := make([]*Scheduler[float64, float64], ranks)
			for r := range scheds {
				scheds[r] = MustNewScheduler[float64, float64](vecApp{dims: 16},
					SchedArgs{NumThreads: 2, ChunkSize: 1, Comm: comms[r]})
			}
			run(b,
				func(r int) error { return scheds[r].globalCombine() },
				func() {
					for _, s := range scheds {
						s.store.reseed(cloneMap(kmTemplate))
					}
				})
		})
	}
}

// cloneMap deep-copies template through a marshal round trip into fresh
// objects of each entry's concrete type.
func cloneMap(template CombMap) CombMap {
	m := make(CombMap, len(template))
	for k, obj := range template {
		b, err := obj.MarshalBinary()
		if err != nil {
			panic(err)
		}
		cp := reflect.New(reflect.TypeOf(obj).Elem()).Interface().(RedObj)
		if err := cp.UnmarshalBinary(b); err != nil {
			panic(err)
		}
		m[k] = cp
	}
	return m
}

func closeAll(comms []*mpi.Comm) {
	for _, c := range comms {
		c.Close()
	}
}

// tcpWireCounters reads the mpi package's tcp wire byte counters out of the
// default registry, where the transport registers them.
func tcpWireCounters() (raw, wire int64) {
	r := obs.DefaultRegistry()
	return r.Counter(`smart_mpi_wire_bytes_raw_total{transport="tcp"}`).Value(),
		r.Counter(`smart_mpi_wire_bytes_encoded_total{transport="tcp"}`).Value()
}
