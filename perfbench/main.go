// Command perfbench is the repository's benchmark: it builds the grid
// stack in its own process, drives one workload against it for a fixed
// time, checks every output against an oracle, and prints the metrics.
//
//	perfbench --workload ycsb-a-wire --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - ycsb-a-wire: the cmd/gridserver stack (J-PFA, async commit, wire
//     server with MaxBatch 128) on loopback, 50k records of ten 100-byte
//     fields, 50% reads / 50% one-field updates, scrambled zipfian 0.99,
//     2 connections x 16 pipelined requests, closed loop. Time goes to
//     wire windows and the per-window durability wait; no delta ledger.
//     It is not listed in BENCHMARK.json: its read oracle fails in some
//     runs, on a defect of the program, not of the benchmark. A read
//     streams a record's value blocks under the stripe lock while an
//     async epoch drained by the other connection applies a queued
//     update of that record and frees the old value block, which a later
//     update then reuses; the read returns a torn value or another key's.
//     It goes back into BENCHMARK.json once the program is fixed.
//   - counters-wire: the same stack, 5k 8-byte counters, 75% add-delta /
//     25% reads, zipfian 0.99, 1 connection x 32 pipelined requests,
//     closed loop. Work goes through fa's delta ledger (fold, materialize,
//     settle-on-read). One connection, not two: with two on a 2-vCPU
//     host the p99 was 2 ms against a 150 us p50 and spread 0.3-0.7 of
//     its median across runs; with one it stays under twice the p50.
//   - churn-recover: one goroutine calling store.Grid directly, J-PFA with
//     per-Tx commit over a file-backed pool, 100k live records, 40% reads,
//     30% one-field updates, 15% inserts, 15% deletes, uniform. Then it
//     restarts from copies of the pool image and reads everything back.
//     Bypasses wire and the epoch pipeline; exercises heap reuse,
//     structural map ops, the per-Tx fence path and core recovery.
//
// Each layer is measured from outside: the benchmark times its own calls
// into wire.Client, store.Grid and the reopen path, wraps the server's
// AwaitDurable func, and diffs the public snapshots (Env.Snapshot,
// Server.Stats, RecoveryObs). With --trace 1 the run is made twice, first
// untraced and then with spans recorded at those boundaries; it prints
// the per-layer metrics of the traced half, trace_overhead against the
// untraced half, and writes the spans under .bench_build/traces.
//
// Stdout carries a header line, a report line with every metric, and as
// its last line the result: correct, attempted, failed and metrics.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the grid sees, from untraced runs.
var endToEnd = []metricDef{
	{"throughput_ops", "ops/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"setup_s", "s"},
	{"recover_s", "s"},
	{"space_amp", "ratio"},
	{"go_heap_mb", "MiB"},
}

// perLayer are the single-layer metrics, from the traced run. A layer a
// workload bypasses reports 0.
var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"lost_acked_writes", "count"},
	{"read_samples", "count"},
	{"write_samples", "count"},
	{"trace_overhead", "ratio"},
	{"wire.window_rtt_us_p50", "us"},
	{"wire.window_rtt_us_p99", "us"},
	{"wire.window_size_mean", "requests"},
	{"wire.bytes_per_op", "B/op"},
	{"wire.self_share", "ratio"},
	{"wire.conn_errors", "count"},
	{"store.read_us_p50", "us"},
	{"store.read_us_p99", "us"},
	{"store.write_us_p50", "us"},
	{"store.write_us_p99", "us"},
	{"store.seqlock_retry_per_read", "ratio"},
	{"store.copy_fallback_frac", "ratio"},
	{"store.go_allocs_per_op", "allocs/op"},
	{"store.rebuild_ms", "ms"},
	{"fa.await_us_p50", "us"},
	{"fa.await_us_p99", "us"},
	{"fa.await_share", "ratio"},
	{"fa.txs_per_epoch", "txs"},
	{"fa.log_entries_per_op", "entries/op"},
	{"fa.flushed_lines_per_op", "lines/op"},
	{"fa.abort_frac", "ratio"},
	{"fa.fold_ratio", "ratio"},
	{"fa.watermark_lag_max", "tickets"},
	{"fa.log_slots_in_use_max", "slots"},
	{"nvm.pwb_per_op", "pwb/op"},
	{"nvm.pfence_per_op", "pfence/op"},
	{"nvm.stores_per_op", "stores/op"},
	{"nvm.flush_bytes_per_user_byte", "ratio"},
	{"heap.allocs_per_op", "allocs/op"},
	{"heap.frees_per_op", "frees/op"},
	{"heap.reuse_frac", "ratio"},
	{"heap.free_list_depth", "blocks"},
	{"core.open_ms", "ms"},
	{"core.replay_ms", "ms"},
	{"core.mark_ms", "ms"},
	{"core.sweep_ms", "ms"},
	{"core.live_objects", "count"},
	{"core.replayed_tx", "count"},
	{"go.gc_cpu_frac", "ratio"},
}

var workloads = []string{"ycsb-a-wire", "counters-wire", "churn-recover"}

// opts is one run's configuration. The command line sets the first four;
// tests shrink the rest.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	nproc        int
	setups       repeat // set-ups per run; setup_s is their median
	restarts     repeat // restarts per run; recover_s is the fastest
	workDir      string // scratch space for pool files
	churnRecords int
	maxOps       int // churn-recover: stop after this many ops instead of a deadline (0: deadline)
	streamOps    int // override of the pre-generated stream length (0: workload default)
	// tamper, when set, runs against the stack after the timed phases and
	// before the read-back: tests inject faults through it.
	tamper func(env *bench.Env)
}

// repeat says how often a timed step runs: at least min times, then
// until the steps took budget in total, at most max times.
type repeat struct {
	min, max int
	budget   time.Duration
}

func (r repeat) more(n int, total time.Duration) bool {
	return n < r.min || (n < r.max && total < r.budget)
}

func (o opts) streamLen(def int) int {
	if o.streamOps > 0 {
		return o.streamOps
	}
	return def
}

// result is one run's outcome.
type result struct {
	attempted, failed, lost uint64
	checkErrs               []string
	nErrs                   int
	e2e, layer              map[string]float64
	tracer                  *tracer
	stack                   *obs.StackSnapshot // churn-recover: the untraced phase's counter deltas
}

// noter returns a sink for correctness errors: every call fails the run;
// the first few are kept for the report.
func (r *result) noter() func(error) {
	return func(err error) {
		r.nErrs++
		if len(r.checkErrs) < 8 {
			r.checkErrs = append(r.checkErrs, err.Error())
		}
	}
}

func (r *result) correct() bool {
	return r.failed == 0 && r.lost == 0 && r.nErrs == 0 && len(r.checkErrs) == 0
}

// wireSpecOf returns the wire workload named name, nil for any other.
func wireSpecOf(name string) *wireSpec {
	switch name {
	case "ycsb-a-wire":
		return &ycsbAWire
	case "counters-wire":
		return &countersWire
	}
	return nil
}

func run(o opts) (*result, error) {
	if s := wireSpecOf(o.workload); s != nil {
		return runWire(s, o)
	}
	if o.workload == "churn-recover" {
		return runChurn(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
}

func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func putInt64(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func pick(defs []metricDef, vals map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload: %v", workloads))
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same op streams")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per phase (after a 1 s warm-up)")
	traceFlag := flag.Int("trace", 0, "1: add a traced phase and print per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for pool images")
	flag.Parse()
	o.trace = *traceFlag != 0
	o.nproc = runtime.NumCPU()
	o.churnRecords = churnRecords
	// Short set-ups and restarts repeat more often, so their figures rest
	// on a few seconds of samples whatever their length. Each restart of a
	// run reopens the same image, so other tenants of the host are all
	// that makes one slower than another, and recover_s is the fastest. A
	// counters-wire restart takes 15-25 ms; 150 of them span about seven
	// seconds, enough to take in a quiet stretch of the host.
	o.setups = repeat{min: 3, max: 40, budget: 2 * time.Second}
	o.restarts = repeat{min: 3, max: 150, budget: 8 * time.Second}
	o.workDir = filepath.Join(o.workDir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if s := wireSpecOf(o.workload); s != nil {
		// One P per connection: a connection's client and server
		// goroutines take turns in the closed loop, so a second P buys
		// it nothing but a choice of wake-up paths, which the scheduler
		// settles per process; with one connection on two Ps, runs of
		// one seed fell into two modes 30% apart in p50 latency.
		runtime.GOMAXPROCS(s.conns)
	}

	header := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	}
	printJSON(map[string]any{"header": header})

	res, err := run(o)
	os.RemoveAll(o.workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.layer["error_rate"] = ratio(float64(res.failed), float64(res.attempted))
	res.layer["lost_acked_writes"] = float64(res.lost)

	report := map[string]any{
		"end_to_end": pick(endToEnd, res.e2e),
		"errors":     res.checkErrs,
	}
	if o.trace {
		report["per_layer"] = pick(perLayer, res.layer)
		path, err := res.tracer.write(filepath.Join(".bench_build", "traces"), fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			os.Exit(1)
		}
		spans := map[string]int{}
		for k := range spanNames {
			spans[spanNames[k]] = res.tracer.count(spanKind(k))
		}
		report["trace"] = map[string]any{"file": path, "spans": spans}
	} else {
		report["checks"] = map[string]float64{
			"error_rate": res.layer["error_rate"], "lost_acked_writes": float64(res.lost),
			"read_samples": res.e2e["read_samples"], "write_samples": res.e2e["write_samples"],
		}
	}
	printJSON(map[string]any{"report": report})

	metrics := pick(endToEnd, res.e2e)
	if o.trace {
		metrics = pick(perLayer, res.layer)
	}
	printJSON(map[string]any{
		"correct":   res.correct(),
		"attempted": res.attempted,
		"failed":    res.failed + res.lost,
		"metrics":   metrics,
	})
}

// printJSON writes v as one line of stdout, keys sorted.
func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(b, '\n'))
}
