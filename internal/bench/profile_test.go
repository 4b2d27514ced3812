package bench

import (
	"fmt"
	"testing"

	"causet/internal/batch"
	"causet/internal/core"
)

// TestProfileSweepAgreesAndWins runs a small E10 sweep and asserts the
// experiment's two claims at every size: the fused kernel and the scan
// produce identical masks, and the fused kernel spends strictly fewer
// comparisons per profile.
func TestProfileSweepAgreesAndWins(t *testing.T) {
	for _, row := range ProfileSweep([]int{8, 32}, 2, 7) {
		if !row.Agree {
			t.Fatalf("n=%d: fused and scanned profiles disagree", row.N)
		}
		if row.FusedCmp >= row.LegacyCmp {
			t.Fatalf("n=%d: fused %.1f cmp/profile, scan %.1f — no win",
				row.N, row.FusedCmp, row.LegacyCmp)
		}
		if row.Pairs != 8*7 {
			t.Fatalf("n=%d: %d pairs, want 56 ordered round pairs", row.N, row.Pairs)
		}
		if row.FusedNs <= 0 || row.LegacyNs <= 0 {
			t.Fatalf("n=%d: non-positive timings %+v", row.N, row)
		}
	}
}

// profileBench benchmarks one profile pass over the E7 sweep sizes on warm
// caches — the serial engine's Profiles, or scanProfiles when scan is set —
// reporting comparisons per profile alongside the allocation columns
// (-benchmem or b.ReportAllocs).
func profileBench(b *testing.B, scan bool) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			res, pairs := profilePairs(n, 1)
			a := core.NewAnalysis(res.Exec)
			eng := batch.New(a, batch.Options{Workers: 1})
			masks := make([]uint32, len(pairs))
			pass := func() (held, cmp int64) {
				if scan {
					return scanProfiles(a, pairs, masks)
				}
				_, st := eng.Profiles(pairs)
				return st.Held, st.Comparisons
			}
			pass() // warm the cut and proxy-cut caches
			b.ReportAllocs()
			b.ResetTimer()
			var cmp, held int64
			for i := 0; i < b.N; i++ {
				h, c := pass()
				cmp += c
				held += h
			}
			b.StopTimer()
			if held == 0 {
				b.Fatal("ring rounds must satisfy some relations")
			}
			ops := float64(b.N) * float64(len(pairs))
			b.ReportMetric(float64(cmp)/ops, "cmp/profile")
			b.ReportMetric(b.Elapsed().Seconds()*1e9/ops, "ns/profile")
		})
	}
}

// BenchmarkProfileFused measures the fused 32-relation kernel on the E7
// sweep sizes; compare against BenchmarkProfileLegacy for the E10 result
// (lower ns/profile and cmp/profile at every size).
func BenchmarkProfileFused(b *testing.B) { profileBench(b, false) }

// BenchmarkProfileLegacy measures the per-relation 32-scan (scanProfiles)
// on the same workload — the baseline BenchmarkProfileFused beats.
func BenchmarkProfileLegacy(b *testing.B) { profileBench(b, true) }
