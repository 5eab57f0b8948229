package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/store"
)

// churnRecords is churn-recover's initial live set: 100k records of ten
// 100-byte fields, far beyond the CPU caches.
const churnRecords = 100_000

// churnOpsPerSecond bounds what one goroutine completes per second (about
// twice the rate seen on a 2-vCPU host); each phase's pre-generated stream
// holds this many ops per second of the phase. A phase that runs out
// stops early and fails the run.
const churnOpsPerSecond = 200_000

// churnWriter marks churn-recover's writes in their values.
const churnWriter = 1

func churnConfig(records int, dir string) bench.GridConfig {
	return bench.GridConfig{Backend: bench.JPFA, Records: records, FieldCount: nFields,
		FieldLen: fieldLen, DataDir: dir}
}

// churnRun is one run of churn-recover: a single goroutine driving the
// grid directly, per-Tx commit, file-backed pool.
type churnRun struct {
	records int
	env     *bench.Env
	dir     string
	keys    []string
	shadow  *shadow
	seq     uint64
	opIndex uint64 // ops run so far, the store.op span id
	fields  []store.Field
	vals    [][]byte
	rec     store.Record

	// The read being verified, kept here so the consume callback is
	// bound once and verifying allocates nothing.
	vKey     uint32
	vSeen    uint32
	vBad     int
	vNote    func(error)
	vConsume func(name string, value []byte)
}

func newChurnRun(records int) *churnRun {
	r := &churnRun{records: records, keys: keyNames(records), shadow: newShadow(records)}
	r.fields = make([]store.Field, nFields)
	r.vals = make([][]byte, nFields)
	for f := range r.vals {
		r.vals[f] = make([]byte, fieldLen)
	}
	r.vConsume = r.consume
	return r
}

// record fills r.fields with a fresh version of every field of key.
func (r *churnRun) record(key uint32) []store.Field {
	for f := 0; f < nFields; f++ {
		r.seq++
		encodeValue(r.vals[f], key, uint8(f), churnWriter, r.seq)
		r.fields[f] = store.Field{Name: fieldNames[f], Value: r.vals[f]}
	}
	return r.fields
}

func (r *churnRun) putShadow(key uint32) {
	for f := 0; f < nFields; f++ {
		_, _, ver, _ := decodeValue(r.vals[f])
		r.shadow.put(key, uint8(f), ver.seq)
	}
}

// setup builds the file-backed stack and loads keys [0, records).
func (r *churnRun) setup(dir string) error {
	env, err := bench.NewEnv(churnConfig(r.records, dir))
	if err != nil {
		return err
	}
	r.env, r.dir = env, dir
	for k := 0; k < r.records; k++ {
		if err := env.Grid.Insert(r.keys[k], &store.Record{Fields: r.record(uint32(k))}); err != nil {
			return fmt.Errorf("load %s: %w", r.keys[k], err)
		}
		r.putShadow(uint32(k))
	}
	return nil
}

// teardown closes the stack and deletes its pool file.
func (r *churnRun) teardown() error {
	if r.env == nil {
		return nil
	}
	r.env.Close()
	r.env = nil
	return os.RemoveAll(r.dir)
}

// verify reads key from g and checks it against the shadow; it returns
// the number of acknowledged field writes the read shows missing or
// wrong.
func (r *churnRun) verify(g *store.Grid, key uint32, note func(error)) int {
	r.vKey, r.vSeen, r.vBad, r.vNote = key, 0, 0, note
	err := g.Read(r.keys[key], r.vConsume)
	if errors.Is(err, store.ErrNotFound) {
		note(fmt.Errorf("%s: missing", r.keys[key]))
		return nFields
	}
	if err != nil {
		note(fmt.Errorf("%s: %w", r.keys[key], err))
		return nFields
	}
	bad := r.vBad
	if r.vSeen != allFields {
		note(fmt.Errorf("%s: fields %010b of %010b present", r.keys[key], r.vSeen, allFields))
		for f := 0; f < nFields; f++ {
			if r.vSeen&(1<<f) == 0 {
				bad++
			}
		}
	}
	return bad
}

func (r *churnRun) consume(name string, value []byte) {
	if err := r.shadow.fieldCheck(r.vKey, name, value, &r.vSeen); err != nil {
		if r.vBad++; r.vBad == 1 {
			r.vNote(err)
		}
	}
}

// churnPhase is the outcome of one timed churn phase.
type churnPhase struct {
	ops, failed  uint64
	slices       *slicer
	userBytes    uint64
	stack        obs.StackSnapshot
	proc0, proc1 procSample
}

// churn runs stream until deadline (or maxOps ops when positive),
// checking every op against the shadow. keys is the key space the stream
// uses.
func (r *churnRun) churn(stream []op, keys int, warm, dur time.Duration, maxOps int, tr *tracer, note func(error)) *churnPhase {
	for i := len(r.keys); i < keys; i++ {
		r.keys = append(r.keys, keyName(i))
	}
	r.shadow.grow(keys)
	g := r.env.Grid
	ph := &churnPhase{}
	before := r.env.Snapshot()
	ph.proc0 = sampleProc()
	start := time.Now()
	warmEnd, deadline := start.Add(warm), start.Add(warm+dur)
	ph.slices = newSlicer(warmEnd, dur)
	for i, o := range stream {
		if maxOps > 0 && int(ph.ops) == maxOps {
			break
		}
		if maxOps == 0 && ph.ops%64 == 0 && !time.Now().Before(deadline) {
			break
		}
		if i == len(stream)-1 && maxOps == 0 {
			note(fmt.Errorf("op stream of %d ran out before the deadline", len(stream)))
		}
		var err error
		bad := 0
		t0 := time.Now()
		switch o.kind {
		case opRead:
			bad = r.verify(g, o.key, note)
		case opUpdate:
			r.seq++
			encodeValue(r.vals[0], o.key, o.field, churnWriter, r.seq)
			r.fields[0] = store.Field{Name: fieldNames[o.field], Value: r.vals[0]}
			err = g.Update(r.keys[o.key], r.fields[:1])
		case opInsert:
			r.rec.Fields = r.record(o.key)
			err = g.Insert(r.keys[o.key], &r.rec)
		case opDelete:
			err = g.Delete(r.keys[o.key])
		}
		t1 := time.Now()
		tr.record(spanStoreOp, r.opIndex, 0, t0, t1)
		r.opIndex++
		ph.ops++
		if err != nil {
			note(fmt.Errorf("%v %s: %w", o.kind, r.keys[o.key], err))
			bad++
		}
		if bad > 0 {
			ph.failed++
			continue
		}
		switch o.kind {
		case opUpdate:
			r.shadow.put(o.key, o.field, r.seq)
			ph.userBytes += fieldLen
		case opInsert:
			r.putShadow(o.key)
			ph.userBytes += uint64(len(r.keys[o.key]) + nFields*fieldLen)
		case opDelete:
			r.shadow.del(o.key)
		}
		sl := ph.slices.at(t0)
		if sl == nil {
			continue
		}
		sl.ops++
		if o.kind.isWrite() {
			sl.writes = append(sl.writes, int64(t1.Sub(t0)))
		} else {
			sl.reads = append(sl.reads, int64(t1.Sub(t0)))
		}
	}
	ph.proc1 = sampleProc()
	ph.stack = r.env.Snapshot().Sub(*before)
	return ph
}

// metrics turns a phase into end-to-end and per-layer metrics. The
// store latencies are the benchmark's own timing of each Grid call,
// which for one goroutine with per-Tx commit is the op's latency.
//
// Every slice counts toward the end-to-end figures: churn slows down as
// its live set ages, so its fastest slices are its first ones, not the
// ones the host left alone; and it waits on memory more than on the CPU,
// so host contention moves it far less than the wire workloads.
func (ph *churnPhase) metrics() (e2e, layer map[string]float64) {
	e2e = ph.slices.e2e(0)
	n := float64(ph.ops)
	g := ph.stack.Grid
	layer = map[string]float64{
		// The wire layer is bypassed.
		"wire.window_rtt_us_p50": 0, "wire.window_rtt_us_p99": 0, "wire.window_size_mean": 0,
		"wire.bytes_per_op": 0, "wire.self_share": 0, "wire.conn_errors": 0,
		"fa.await_us_p50": 0, "fa.await_us_p99": 0, "fa.await_share": 0,
		"fa.watermark_lag_max": 0, "fa.log_slots_in_use_max": 0,
		"store.read_us_p50":            e2e["read_p50_us"],
		"store.read_us_p99":            e2e["read_p99_us"],
		"store.write_us_p50":           e2e["write_p50_us"],
		"store.write_us_p99":           e2e["write_p99_us"],
		"store.seqlock_retry_per_read": ratio(float64(g.SeqlockRetries), float64(g.PerOp["read"].Count)),
		"store.copy_fallback_frac":     ratio(float64(g.CopyFallbacks), float64(g.ZeroCopyHits+g.CopyFallbacks)),
		"store.go_allocs_per_op":       ratio(float64(ph.proc1.mallocs-ph.proc0.mallocs), n),
		"go.gc_cpu_frac":               ratio(ph.proc1.gcCPU-ph.proc0.gcCPU, ph.proc1.allCPU-ph.proc0.allCPU),
	}
	layer["read_samples"], layer["write_samples"] = e2e["read_samples"], e2e["write_samples"]
	stackLayers(layer, &ph.stack, n, float64(ph.userBytes))
	return e2e, layer
}

// runChurn runs churn-recover end to end.
func runChurn(o opts) (*result, error) {
	res := &result{}
	note := res.noter()
	records := o.churnRecords
	gen := newChurnGen(o.seed, records)
	r := newChurnRun(records)

	var setups []float64
	var total time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(o.workDir, fmt.Sprintf("churn-%d", i))
		r.shadow, r.seq = newShadow(records), 0
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		setups, total = append(setups, d.Seconds()), total+d
		if !o.setups.more(len(setups), total) {
			break
		}
		if err := r.teardown(); err != nil {
			return nil, err
		}
		releaseMemory()
	}
	defer r.teardown()

	dur := time.Duration(o.seconds * float64(time.Second))
	streamLen := o.streamLen(int((warmup + dur).Seconds() * churnOpsPerSecond))
	ph := r.churn(gen.gen(streamLen), gen.next, warmup, dur, o.maxOps, nil, note)
	e2e, layer := ph.metrics()
	res.attempted, res.failed = ph.ops, ph.failed
	stack := ph.stack
	res.stack = &stack
	if o.trace {
		tr := newTracer()
		// The first phase ran only a prefix of its stream: rewind the
		// generator to the end of that prefix.
		gen = newChurnGen(o.seed, records)
		gen.gen(int(ph.ops))
		tph := r.churn(gen.gen(streamLen), gen.next, warmup, dur, o.maxOps, tr, note)
		te, tl := tph.metrics()
		res.attempted += tph.ops
		res.failed += tph.failed
		tl["trace_overhead"] = 1 - ratio(te["throughput_ops"], e2e["throughput_ops"])
		layer = tl
		res.tracer = tr
	}
	gen = nil

	if o.tamper != nil {
		o.tamper(r.env)
	}
	live := r.shadow.nLive
	userBytes := 0.0
	for k, l := range r.shadow.live {
		if l {
			userBytes += float64(len(r.keys[k]) + nFields*fieldLen)
		}
	}
	e2e["space_amp"] = heapBytesInUse(r.env) / userBytes
	e2e["setup_s"] = median(setups)
	runningHeap := liveGoHeap()

	// Restart from the image the running process left behind: nothing
	// is closed or drained first.
	rs, err := restartAll(churnConfig(records, ""), r.env.Pool, o.restarts, o.workDir, res.tracer, func(g *store.Grid, count int) int {
		if count != live {
			note(fmt.Errorf("restart: %d records, shadow holds %d", count, live))
		}
		lost := 0
		for k, l := range r.shadow.live {
			if l {
				lost += r.verify(g, uint32(k), note)
			}
		}
		return lost
	})
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	res.lost = uint64(rs.lost)
	e2e["recover_s"] = slices.Min(rs.totalS)
	if err := r.teardown(); err != nil {
		return nil, err
	}
	e2e["go_heap_mb"] = goHeapMB(runningHeap, liveGoHeap(), 0)
	rs.layer(layer)
	res.e2e, res.layer = e2e, layer
	return res, nil
}
