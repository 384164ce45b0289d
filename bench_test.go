// Package smart_test hosts the benchmark harness: one testing.B benchmark
// per table/figure of the paper's evaluation (Section 5). Each benchmark
// regenerates its figure at Small scale per iteration and reports the
// figure's headline ratio as a custom metric; `go run ./cmd/smartbench`
// produces the full-scale tables recorded in EXPERIMENTS.md.
package smart_test

import (
	"testing"

	"github.com/scipioneer/smart/internal/harness"
)

// headline extracts a comparative metric from two series at an x value.
func ratioAt(r *harness.Result, slow, fast string, x float64) float64 {
	s := r.SeriesByName(slow)
	f := r.SeriesByName(fast)
	if s == nil || f == nil {
		return 0
	}
	sv, ok1 := s.YAt(x)
	fv, ok2 := f.YAt(x)
	if !ok1 || !ok2 || fv == 0 {
		return 0
	}
	return sv / fv
}

// BenchmarkFig1_InsituVsOffline regenerates Figure 1: in-situ vs offline
// k-means on Heat3D across iteration counts.
func BenchmarkFig1_InsituVsOffline(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig1(harness.Small)
		if err != nil {
			b.Fatal(err)
		}
		speedup = ratioAt(res, "offline total", "in-situ total", 1)
	}
	b.ReportMetric(speedup, "insitu-speedup-x")
}

// BenchmarkFig5_SmartVsConventionalMR regenerates Figures 5a-5c: Smart vs
// the conventional-MapReduce baseline on LR, k-means, and histogram.
func BenchmarkFig5_SmartVsConventionalMR(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		results, err := harness.Fig5(harness.Small)
		if err != nil {
			b.Fatal(err)
		}
		gap = ratioAt(results[2], "conventional MR", "Smart", 8)
	}
	b.ReportMetric(gap, "histogram-gap-x")
}

// BenchmarkFig5Mem_Footprint regenerates the Section 5.2 memory comparison.
func BenchmarkFig5Mem_Footprint(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig5Mem(harness.Small)
		if err != nil {
			b.Fatal(err)
		}
		ratio = ratioAt(res, "conventional MR", "Smart", 2)
	}
	b.ReportMetric(ratio, "footprint-ratio-x")
}

// BenchmarkFig6_LowLevel regenerates Figure 6: Smart vs hand-coded
// MPI/OpenMP-style k-means and logistic regression on 8-64 modeled nodes.
func BenchmarkFig6_LowLevel(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		results, err := harness.Fig6(harness.Small)
		if err != nil {
			b.Fatal(err)
		}
		overhead = ratioAt(results[1], "Smart", "hand-coded", 8)
	}
	b.ReportMetric(overhead, "logreg-smart/handcoded")
}

// BenchmarkFig7_NodeScaling regenerates Figure 7: nine applications on
// Heat3D across 4-32 modeled nodes.
func BenchmarkFig7_NodeScaling(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig7(harness.Small)
		if err != nil {
			b.Fatal(err)
		}
		// Strong-scaling efficiency of k-means from 4 to 32 nodes:
		// (T4 * 4) / (T32 * 32).
		if s := res.SeriesByName("k-means"); s != nil {
			t4, ok4 := s.YAt(4)
			t32, ok32 := s.YAt(32)
			if ok4 && ok32 && t32 > 0 {
				eff = t4 * 4 / (t32 * 32)
			}
		}
	}
	b.ReportMetric(eff, "kmeans-efficiency")
}

// BenchmarkFig8_ThreadScaling regenerates Figure 8: nine applications on
// Lulesh across 1-8 threads on 64 modeled nodes.
func BenchmarkFig8_ThreadScaling(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig8(harness.Small)
		if err != nil {
			b.Fatal(err)
		}
		if s := res.SeriesByName("moving median"); s != nil {
			v1, ok1 := s.YAt(1)
			v8, ok8 := s.YAt(8)
			if ok1 && ok8 && v8 > 0 {
				speedup = v1 / v8
			}
		}
	}
	b.ReportMetric(speedup, "median-8thread-speedup-x")
}

// BenchmarkFig9a_ZeroCopy regenerates Figure 9a: zero-copy vs extra-copy
// time sharing, logistic regression on Heat3D.
func BenchmarkFig9a_ZeroCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig9a(harness.Small); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9b_ZeroCopy regenerates Figure 9b: zero-copy vs extra-copy
// time sharing, mutual information on Lulesh.
func BenchmarkFig9b_ZeroCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig9b(harness.Small); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_Modes regenerates Figures 10a-10c: time sharing vs space
// sharing schemes on many-core nodes.
func BenchmarkFig10_Modes(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		results, err := harness.Fig10(harness.Small)
		if err != nil {
			b.Fatal(err)
		}
		// Moving median: time sharing (x=1) vs the 30_30 split (x=4).
		ts := results[2].SeriesByName("time sharing")
		ss := results[2].SeriesByName("30_30")
		if ts != nil && ss != nil {
			tsv, ok1 := ts.YAt(1)
			ssv, ok2 := ss.YAt(4)
			if ok1 && ok2 && ssv > 0 {
				gain = tsv / ssv
			}
		}
	}
	b.ReportMetric(gain, "median-ss-gain-x")
}

// BenchmarkFig11a_Trigger regenerates Figure 11a: early emission on/off for
// moving average on Heat3D.
func BenchmarkFig11a_Trigger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig11a(harness.Small); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11b_Trigger regenerates Figure 11b: early emission on/off for
// moving median on Lulesh.
func BenchmarkFig11b_Trigger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig11b(harness.Small); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExt1_Placements regenerates the extension experiment: in-situ vs
// in-transit vs hybrid across interconnect bandwidths.
func BenchmarkExt1_Placements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.FigExt1(harness.Small); err != nil {
			b.Fatal(err)
		}
	}
}
