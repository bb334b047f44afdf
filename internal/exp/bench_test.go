package exp

// BenchmarkTable2 / BenchmarkFig5 ... BenchmarkFig11 / BenchmarkAblation*:
// one benchmark per table/figure of the paper's evaluation. Each
// iteration regenerates the whole table on the simulated cluster; run
// with -v to see the regenerated rows, or use cmd/benchrun for nicer
// output. The custom metric "model_s/op" is the headline model-time of
// the experiment's largest configuration. Framework overhead in wall
// time — per call and per layer — is benchmark/'s job (its ladder
// carries the allocator, pipe, malloc, launch and swap rungs).
//
// The full -bench=. run takes a couple of minutes; individual figures
// can be selected with e.g. -bench=Fig7.

import (
	"strconv"
	"testing"
)

// benchExp regenerates one experiment per iteration and reports the
// last row's first numeric cell as model seconds.
func benchExp(b *testing.B, run func(Options) (*Table, error)) {
	b.Helper()
	o := Options{Scale: 1e-3, Runs: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		t, err := run(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range t.Rows {
				b.Logf("%v", row)
			}
			if len(t.Rows) > 0 {
				last := t.Rows[len(t.Rows)-1]
				for _, cell := range last {
					if v, err := strconv.ParseFloat(cell, 64); err == nil {
						b.ReportMetric(v, "model_s")
						break
					}
				}
			}
		}
	}
}

func BenchmarkTable2(b *testing.B)   { benchExp(b, Table2) }
func BenchmarkFig1(b *testing.B)     { benchExp(b, Fig1) }
func BenchmarkCtxLimit(b *testing.B) { benchExp(b, CtxLimit) }
func BenchmarkFig5(b *testing.B)     { benchExp(b, Fig5) }
func BenchmarkFig6(b *testing.B)     { benchExp(b, Fig6) }
func BenchmarkFig7(b *testing.B)     { benchExp(b, Fig7) }
func BenchmarkFig8(b *testing.B)     { benchExp(b, Fig8) }
func BenchmarkFig9(b *testing.B)     { benchExp(b, Fig9) }
func BenchmarkFig10(b *testing.B)    { benchExp(b, Fig10) }
func BenchmarkFig11(b *testing.B)    { benchExp(b, Fig11) }

func BenchmarkAblationVGPUCount(b *testing.B) { benchExp(b, AblationVGPUCount) }
func BenchmarkAblationDeferral(b *testing.B)  { benchExp(b, AblationDeferral) }
func BenchmarkAblationInterSwap(b *testing.B) { benchExp(b, AblationInterSwap) }
func BenchmarkAblationSchedulers(b *testing.B) {
	benchExp(b, AblationSchedulers)
}
func BenchmarkAblationCheckpoint(b *testing.B) {
	benchExp(b, AblationCheckpoint)
}
func BenchmarkAblationOffloadThreshold(b *testing.B) {
	benchExp(b, AblationOffloadThreshold)
}
