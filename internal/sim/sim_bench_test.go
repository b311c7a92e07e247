package sim

import "testing"

// testing.B wrappers over the shared kernels in benchkernels.go.
// cmd/rambda-bench times the same kernels and records them in
// BENCH_*.json; run these directly with
//
//	go test -bench 'Resource|Histogram|ClosedLoop|Zipf' -benchmem ./internal/sim
var benchSink Time

func BenchmarkResourceAcquireGapFree(b *testing.B) {
	b.ReportAllocs()
	benchSink = BenchAcquireGapFree(b.N)
}

func BenchmarkResourceAcquireGapHeavy(b *testing.B) {
	b.ReportAllocs()
	benchSink = BenchAcquireGapHeavy(b.N)
}

func BenchmarkResourceAcquireGapSaturated(b *testing.B) {
	b.ReportAllocs()
	benchSink = BenchAcquireGapSaturated(b.N)
}

func BenchmarkResourceAcquireBehindFrontier(b *testing.B) {
	b.ReportAllocs()
	benchSink = BenchAcquireBehindFrontier(b.N)
}

func BenchmarkClosedLoopRun(b *testing.B) {
	b.ReportAllocs()
	_ = BenchClosedLoop(b.N)
}

func BenchmarkHistogramRecord(b *testing.B) {
	b.ReportAllocs()
	benchSink = BenchHistogramRecord(b.N)
}

func BenchmarkHistogramPercentile(b *testing.B) {
	b.ReportAllocs()
	benchSink = BenchHistogramPercentile(b.N)
}

func BenchmarkRNGUint64(b *testing.B) {
	b.ReportAllocs()
	_ = BenchRNG(b.N)
}

func BenchmarkZipfNext(b *testing.B) {
	b.ReportAllocs()
	_ = BenchZipf(b.N)
}
