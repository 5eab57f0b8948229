package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/heap"
	"repro/internal/obs"
)

// usPercentile returns the nearest-rank percentile p of samples (ns) in
// microseconds; it sorts samples in place.
func usPercentile(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !slices.IsSorted(samples) {
		slices.Sort(samples)
	}
	i := int(math.Ceil(p*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(samples[i]) / 1e3
}

// histUs estimates percentile p of a grid histogram in microseconds. The
// histogram only reports the low edge of a log-scale bucket, so the rank
// is placed linearly inside the bucket, found by bisecting the public
// Percentile over ranks.
func histUs(h obs.HistogramSnapshot, p float64) float64 {
	n := h.Count
	if n == 0 {
		return 0
	}
	at := func(rank uint64) uint64 { return h.Percentile((float64(rank) + 0.5) / float64(n)) }
	target := uint64(p * float64(n))
	if target >= n {
		target = n - 1
	}
	low := at(target)
	// first and last rank that fall in the bucket starting at low
	first := uint64(sort.Search(int(target+1), func(r int) bool { return at(uint64(r)) >= low }))
	last := target + uint64(sort.Search(int(n-target), func(r int) bool { return at(target+uint64(r)) > low })) - 1
	width := uint64(1)
	if low >= 16 {
		width = 1 << uint(bits.Len64(low)-1-4)
	}
	v := float64(low) + float64(width)*(float64(target-first)+0.5)/float64(last-first+1)
	if mx := float64(h.Max); h.Max > 0 && v > mx {
		v = mx
	}
	return v / 1e3
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is process-wide state diffed across a timed phase: Go
// allocations and the CPU time the garbage collector took.
type procSample struct {
	mallocs uint64
	gcCPU   float64
	allCPU  float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	out := procSample{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.allCPU = s[1].Value.Float64()
	}
	return out
}

// liveGoHeap is the live Go heap in bytes after full collections (two,
// so what a sync.Pool keeps for one more cycle is gone too).
func liveGoHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// goHeapMB is the Go heap a stack held: the live heap while it ran less
// the live heap once it is closed and unreachable, so the benchmark's own
// state (keys, oracles, latency samples), which grows with the ops a run
// completes, cancels out. poolBytes is the part that was the simulated
// NVMM pool: an in-memory pool's backing array lives on the Go heap, where
// it stands in for off-heap NVMM.
func goHeapMB(running, closed, poolBytes uint64) float64 {
	return (float64(running) - float64(closed) - float64(poolBytes)) / (1 << 20)
}

// slicer splits a measured phase into equal slices of sliceWidth, so
// that the end-to-end figures can leave out the slices the host slowed
// down (see e2e).
type slicer struct {
	start  time.Time
	width  time.Duration
	slices []slice
}

// sliceWidth is the length of one slice: short enough that a burst of
// host contention spoils few slices, long enough that each holds
// thousands of latency samples.
const sliceWidth = 500 * time.Millisecond

// slice holds the ops started in one slice and their latencies (ns).
type slice struct {
	ops           int
	reads, writes []int64
}

func newSlicer(start time.Time, dur time.Duration) *slicer {
	n := int((dur + sliceWidth/2) / sliceWidth)
	if n < 1 {
		n = 1
	}
	return &slicer{start: start, width: dur / time.Duration(n), slices: make([]slice, n)}
}

// at returns the slice an op started at t belongs to, nil outside the
// measured phase.
func (s *slicer) at(t time.Time) *slice {
	d := t.Sub(s.start)
	if d < 0 {
		return nil
	}
	i := int(d / s.width)
	if i >= len(s.slices) {
		return nil
	}
	return &s.slices[i]
}

// merge folds o, which must cover the same phase, into s.
func (s *slicer) merge(o *slicer) {
	for i := range s.slices {
		s.slices[i].ops += o.slices[i].ops
		s.slices[i].reads = append(s.slices[i].reads, o.slices[i].reads...)
		s.slices[i].writes = append(s.slices[i].writes, o.slices[i].writes...)
	}
}

// e2e returns the latency and throughput metrics, plus total sample
// counts. Throughput and latency percentiles are taken over the quiet
// slices, pooled: those that completed at least quietShare of the ops of
// the run's fastest slice (0 takes every slice). Contention from other
// tenants of the host only ever adds time, and on a 2-vCPU guest it comes
// and goes in stretches of seconds to minutes that slow compute-bound
// code by up to 1.8x, in a share of each run that varies from run to run.
// The quiet slices show the program's own speed; a change to the program
// moves every slice, quiet ones included.
func (s *slicer) e2e(quietShare float64) map[string]float64 {
	fastest := 0
	for i := range s.slices {
		fastest = max(fastest, s.slices[i].ops)
	}
	var reads, writes [][]int64
	var nReads, nWrites, quiet, quietOps int
	for i := range s.slices {
		sl := &s.slices[i]
		nReads += len(sl.reads)
		nWrites += len(sl.writes)
		if float64(sl.ops) < quietShare*float64(fastest) {
			continue
		}
		quiet++
		quietOps += sl.ops
		reads = append(reads, sl.reads)
		writes = append(writes, sl.writes)
	}
	return map[string]float64{
		"throughput_ops": float64(quietOps) / (float64(quiet) * s.width.Seconds()),
		"read_p50_us":    pooledPercentile(reads, 0.50),
		"read_p99_us":    pooledPercentile(reads, 0.99),
		"write_p50_us":   pooledPercentile(writes, 0.50),
		"write_p99_us":   pooledPercentile(writes, 0.99),
		"read_samples":   float64(nReads),
		"write_samples":  float64(nWrites),
	}
}

// pooledPercentile is usPercentile of the union of sets, found by
// bisecting on the value rather than by merging the sets, which can hold
// tens of millions of samples.
func pooledPercentile(sets [][]int64, p float64) float64 {
	total := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, set := range sets {
		if len(set) == 0 {
			continue
		}
		slices.Sort(set)
		total += len(set)
		lo, hi = min(lo, set[0]), max(hi, set[len(set)-1])
	}
	if total == 0 {
		return 0
	}
	rank := max(int(math.Ceil(p*float64(total))), 1)
	// The answer is the smallest sample with at least rank samples at or
	// below it.
	for lo < hi {
		mid := lo + (hi-lo)/2
		n := 0
		for _, set := range sets {
			n += sort.Search(len(set), func(i int) bool { return set[i] > mid })
		}
		if n >= rank {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return float64(lo) / 1e3
}

// stackLayers fills the fa, nvm and heap per-layer metrics from a
// snapshot delta over n grid ops that wrote userBytes of values.
func stackLayers(m map[string]float64, d *obs.StackSnapshot, n, userBytes float64) {
	fa, nv, hp := d.FA, d.NVM, d.Heap
	m["fa.txs_per_epoch"] = ratio(float64(fa.EpochTxs), float64(fa.Epochs))
	m["fa.log_entries_per_op"] = ratio(float64(fa.LogEntries), n)
	m["fa.flushed_lines_per_op"] = ratio(float64(fa.FlushedLines), n)
	m["fa.abort_frac"] = ratio(float64(fa.Aborted), float64(fa.Begun))
	m["fa.fold_ratio"] = ratio(float64(fa.DeltaOps), float64(fa.DeltaEntries))
	m["nvm.pwb_per_op"] = ratio(float64(nv.PWBs), n)
	m["nvm.pfence_per_op"] = ratio(float64(nv.Fences()), n)
	m["nvm.stores_per_op"] = ratio(float64(nv.Stores), n)
	m["nvm.flush_bytes_per_user_byte"] = ratio(float64(nv.PWBs)*64, userBytes)
	m["heap.allocs_per_op"] = ratio(float64(hp.ObjAllocs+hp.SmallAllocs), n)
	m["heap.frees_per_op"] = ratio(float64(hp.ObjFrees+hp.SmallFrees), n)
	m["heap.reuse_frac"] = ratio(float64(hp.ReuseAllocs), float64(hp.BumpAllocs+hp.ReuseAllocs))
	m["heap.free_list_depth"] = float64(hp.FreeBlocks)
}

// heapBytesInUse is the NVMM arena in use: blocks ever carved minus the
// free queue.
func heapBytesInUse(env *bench.Env) float64 {
	s := env.Heap.Mem().ObsSnapshot()
	return float64(s.Bump-s.FreeBlocks) * heap.BlockSize
}
