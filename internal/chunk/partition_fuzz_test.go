package chunk

import "testing"

// FuzzPartition pins the Partition invariants the static schedule builds
// on: the splits tile [0, n) exactly (full coverage, no overlap, no gaps),
// every non-empty split starts on a chunkSize boundary (no unit chunk is
// torn across threads), unit counts are balanced to within one chunk, and
// when parts exceeds the unit count the surplus splits are zero-length with
// in-range starts rather than junk the scheduler would have to special-case.
func FuzzPartition(f *testing.F) {
	f.Add(100, 4, 1)
	f.Add(103, 4, 5)
	f.Add(0, 3, 2)
	f.Add(5, 8, 2) // parts > NumChunks: trailing zero-length splits
	f.Add(1<<20, 16, 7)
	f.Fuzz(func(t *testing.T, n, parts, chunkSize int) {
		n = n & 0xFFFFF // keep allocations sane
		parts = parts&0xFF + 1
		chunkSize = chunkSize&0x3F + 1

		splits := Partition(n, parts, chunkSize)
		if len(splits) != parts {
			t.Fatalf("Partition(%d, %d, %d): %d splits, want exactly %d",
				n, parts, chunkSize, len(splits), parts)
		}

		units := (n + chunkSize - 1) / chunkSize
		minUnits, maxUnits := units, 0
		pos, total := 0, 0
		for i, s := range splits {
			if s.Length < 0 {
				t.Fatalf("split %d has negative length %d", i, s.Length)
			}
			if s.Start != pos {
				t.Fatalf("split %d starts at %d, want %d (gap or overlap)", i, s.Start, pos)
			}
			if s.Length > 0 && s.Start%chunkSize != 0 {
				t.Fatalf("split %d starts at %d, not aligned to chunk size %d",
					i, s.Start, chunkSize)
			}
			if s.Start < 0 || s.End() > n {
				t.Fatalf("split %d = %+v escapes [0, %d)", i, s, n)
			}
			u := s.NumChunks(chunkSize)
			if u < minUnits {
				minUnits = u
			}
			if u > maxUnits {
				maxUnits = u
			}
			pos = s.End()
			total += s.Length
		}
		if total != n {
			t.Fatalf("splits cover %d elements, want %d", total, n)
		}
		// Balance: unit counts differ by at most one chunk across splits
		// (the equal-split premise of the static schedule).
		if units > 0 && maxUnits-minUnits > 1 {
			t.Fatalf("unit counts range [%d, %d]; static splits must balance to within one chunk",
				minUnits, maxUnits)
		}
		// parts > NumChunks: exactly parts-units trailing splits are empty,
		// and they all sit at position n.
		if parts > units {
			for i := units; i < parts; i++ {
				if splits[i].Length != 0 || splits[i].Start != n {
					t.Fatalf("surplus split %d = %+v, want zero-length at %d",
						i, splits[i], n)
				}
			}
		}
	})
}
