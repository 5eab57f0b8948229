package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/store"
	"repro/internal/wire"
)

// wireSpec is one closed-loop workload over the wire protocol: conns
// connections, each sending a window of depth pipelined requests and the
// next window only once every response of the previous one arrived.
type wireSpec struct {
	name             string
	records          int
	conns, depth     int
	fields, fieldLen int    // record shape, for pool sizing and user bytes
	writeOp          string // grid histogram the workload's writes land in
	gen              func(seed int64, lane, records, n int) []op
}

var (
	ycsbAWire = wireSpec{name: "ycsb-a-wire", records: 50_000, conns: 2, depth: 16,
		fields: nFields, fieldLen: fieldLen, writeOp: "update", gen: genYCSBA}
	// Grid.AddDelta records its latency in the rmw histogram.
	countersWire = wireSpec{name: "counters-wire", records: 5_000, conns: 1, depth: 32,
		fields: 1, fieldLen: 8, writeOp: "rmw", gen: genCounters}
)

// wireQuietShare is the share of the fastest slice's ops a slice of a
// wire workload must reach to count toward its end-to-end figures (see
// slicer.e2e). These workloads do the same work all run long and are
// compute-bound, so host contention alone separates their slices: quiet
// ones come within a few percent of the fastest, slowed ones fall 30-45%
// short of it.
const wireQuietShare = 0.9

// wireStreamLen is each connection's pre-generated op count; a
// connection that runs through it starts over from the beginning.
const wireStreamLen = 1 << 20

// gridConfig is the stack cmd/gridserver builds for these workloads:
// J-PFA, async commit, one in-memory pool.
func (s *wireSpec) gridConfig() bench.GridConfig {
	return bench.GridConfig{Backend: bench.JPFA, Records: s.records, FieldCount: s.fields,
		FieldLen: s.fieldLen, Commit: "async"}
}

// awaitTimer wraps the durability wait the server calls once per window
// that wrote: the only view into fa the benchmark has on the wire path.
type awaitTimer struct {
	inner func()
	tr    atomic.Pointer[tracer]
	calls atomic.Uint64
	ns    atomic.Uint64

	mu      sync.Mutex
	samples []int64
}

func (a *awaitTimer) wait() {
	t0 := time.Now()
	a.inner()
	t1 := time.Now()
	d := int64(t1.Sub(t0))
	n := a.calls.Add(1)
	a.ns.Add(uint64(d))
	a.mu.Lock()
	a.samples = append(a.samples, d)
	a.mu.Unlock()
	a.tr.Load().record(spanAwait, n, 0, t0, t1)
}

// takeSamples returns and clears the samples recorded so far.
func (a *awaitTimer) takeSamples() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.samples
	a.samples = nil
	return s
}

// wireStack is one running stack: grid, server on loopback, clients.
type wireStack struct {
	env     *bench.Env
	srv     *wire.Server
	served  chan error
	clients []*wire.Client
	await   *awaitTimer
}

func (st *wireStack) close() {
	for _, c := range st.clients {
		c.Close()
	}
	if st.srv != nil {
		st.srv.Shutdown(10 * time.Second)
		<-st.served
	}
	st.env.Close()
}

// setupWire builds the stack and loads the initial records: the timed
// part of setup_s.
func setupWire(s *wireSpec, initial func(k int, fields []store.Field) []store.Field, keys []string) (*wireStack, error) {
	env, err := bench.NewEnv(s.gridConfig())
	if err != nil {
		return nil, err
	}
	st := &wireStack{env: env}
	var fields []store.Field
	for k := 0; k < s.records; k++ {
		fields = initial(k, fields[:0])
		if err := env.Grid.Insert(keys[k], &store.Record{Fields: fields}); err != nil {
			env.Close()
			return nil, fmt.Errorf("load %s: %w", keys[k], err)
		}
	}
	env.DrainDurable()
	st.await = &awaitTimer{inner: env.AwaitDurable}
	st.srv = wire.NewServer(wire.ServerConfig{Grid: env.Grid, AwaitDurable: st.await.wait, MaxBatch: 128})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.Close()
		return nil, err
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(l) }()
	for c := 0; c < s.conns; c++ {
		cl, err := wire.Dial(l.Addr().String())
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, cl)
	}
	return st, nil
}

// checker is a workload's oracle as seen by the client loop.
type checker interface {
	checkRead(c int, key uint32, fields []store.Field) error
}

// connState is what a connection carries across phases.
type connState struct {
	stream  []op
	pos     int
	seq     uint64 // last update sequence number sent
	windows uint64
}

// connResult is one connection's share of one phase.
type connResult struct {
	ops, failed      uint64
	slices           *slicer
	rtts             []int64
	sumRTT           int64
	userBytes        uint64
	lagMax, slotsMax uint64
	errs             []string
	err              error
}

// wireRun is one run of a wire workload.
type wireRun struct {
	spec    *wireSpec
	st      *wireStack
	keys    []string
	conns   []*connState
	ycsb    *ycsbOracle
	counter *counterOracle
}

func (w *wireRun) oracle() checker {
	if w.ycsb != nil {
		return w.ycsb
	}
	return w.counter
}

// client runs connection c's closed loop until deadline, recording
// the latencies of windows sent in the measured slices.
func (w *wireRun) client(c int, deadline time.Time, tr *tracer, res *connResult) {
	cs := w.conns[c]
	cl := w.st.clients[c]
	depth := w.spec.depth
	reqs := make([]wire.Request, depth)
	window := make([]op, depth)
	seqs := make([]uint64, depth)
	vals := make([][]byte, depth)
	upd := make([][]store.Field, depth)
	for i := range vals {
		vals[i] = make([]byte, fieldLen)
		upd[i] = make([]store.Field, 1)
	}
	oracle := w.oracle()
	var resp wire.Response
	mgr := w.st.env.Mgr
	sample := func() {
		durable := mgr.DurableWatermark()
		if lag := mgr.IssuedTickets() - durable; lag > res.lagMax {
			res.lagMax = lag
		}
		if s := mgr.ObsSnapshot().SlotsInUse; s > res.slotsMax {
			res.slotsMax = s
		}
	}
	ok := make([]bool, depth)
	for time.Now().Before(deadline) {
		for i := range window {
			o := cs.stream[cs.pos]
			if cs.pos++; cs.pos == len(cs.stream) {
				cs.pos = 0
			}
			window[i] = o
			r := &reqs[i]
			*r = wire.Request{Key: w.keys[o.key]}
			switch o.kind {
			case opRead:
				r.Op = wire.OpRead
			case opUpdate:
				cs.seq++
				seqs[i] = cs.seq
				encodeValue(vals[i], o.key, o.field, uint8(c+1), cs.seq)
				upd[i][0] = store.Field{Name: fieldNames[o.field], Value: vals[i]}
				r.Op, r.Fields = wire.OpUpdate, upd[i]
			case opAddDelta:
				r.Op, r.Field, r.Delta = wire.OpAddDelta, counterField, int64(o.arg)
			}
			if err := cl.Send(r); err != nil {
				res.err = err
				return
			}
		}
		if tr != nil {
			sample()
		}
		t0 := time.Now()
		if err := cl.Flush(); err != nil {
			res.err = err
			return
		}
		sl := res.slices.at(t0)
		var t time.Time
		for i := range window {
			ok[i] = false
			if err := cl.Recv(&resp); err != nil {
				res.err = err
				return
			}
			t = time.Now()
			o := window[i]
			switch {
			case resp.Status != wire.StatusOK:
				res.failed++
				if len(res.errs) < 4 {
					res.errs = append(res.errs, fmt.Sprintf("%s %s: status %d %s", resp.Op, w.keys[o.key], resp.Status, resp.Msg))
				}
			case o.kind == opRead:
				if err := oracle.checkRead(c, o.key, resp.Fields); err != nil {
					res.failed++
					if len(res.errs) < 4 {
						res.errs = append(res.errs, err.Error())
					}
				}
			default:
				ok[i] = true
			}
			if sl != nil {
				lat := int64(t.Sub(t0))
				if o.kind.isWrite() {
					sl.writes = append(sl.writes, lat)
				} else {
					sl.reads = append(sl.reads, lat)
				}
			}
		}
		// Acknowledge the window's writes only now: within one window a
		// read may precede the epoch that applies an earlier update.
		for i, o := range window {
			if !ok[i] {
				continue
			}
			switch o.kind {
			case opUpdate:
				w.ycsb.ack(c, o.key, o.field, seqs[i])
				res.userBytes += fieldLen
			case opAddDelta:
				w.counter.ack(c, o.key, int64(o.arg))
				res.userBytes += 8
			}
		}
		rtt := int64(t.Sub(t0))
		res.ops += uint64(depth)
		res.sumRTT += rtt
		cs.windows++
		tr.record(spanWindow, uint64(c)<<32|cs.windows, 0, t0, t)
		if tr != nil {
			sample()
		}
		if sl != nil {
			sl.ops += depth
			res.rtts = append(res.rtts, rtt)
		}
	}
}

// warmup is the closed-loop time before latencies are recorded.
const warmup = time.Second

// phase runs every connection for warmup+dur and returns the phase's
// end-to-end metrics, per-layer metrics and accounting-check failures.
func (w *wireRun) phase(dur time.Duration, tr *tracer) (e2e, layer map[string]float64, ops, failed uint64, errs []string) {
	env, srv, aw := w.st.env, w.st.srv, w.st.await
	aw.tr.Store(tr)
	defer aw.tr.Store(nil)
	aw.takeSamples()
	stackBefore := env.Snapshot()
	srvBefore := srv.Stats().Snapshot()
	callsBefore, awaitNsBefore := aw.calls.Load(), aw.ns.Load()
	procBefore := sampleProc()

	start := time.Now()
	warmEnd, deadline := start.Add(warmup), start.Add(warmup+dur)
	results := make([]connResult, len(w.conns))
	var wg sync.WaitGroup
	for c := range w.conns {
		results[c].slices = newSlicer(warmEnd, dur)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(c, deadline, tr, &results[c])
		}(c)
	}
	wg.Wait()

	procAfter := sampleProc()
	stack := env.Snapshot().Sub(*stackBefore)
	srvD := srv.Stats().Snapshot().Sub(srvBefore)
	calls, awaitNs := aw.calls.Load()-callsBefore, aw.ns.Load()-awaitNsBefore
	awaitSamples := aw.takeSamples()

	all := connResult{slices: newSlicer(warmEnd, dur)}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			errs = append(errs, fmt.Sprintf("conn %d: %v", i, r.err))
		}
		errs = append(errs, r.errs...)
		all.ops += r.ops
		all.failed += r.failed
		all.sumRTT += r.sumRTT
		all.userBytes += r.userBytes
		all.slices.merge(r.slices)
		all.rtts = append(all.rtts, r.rtts...)
		all.lagMax = max(all.lagMax, r.lagMax)
		all.slotsMax = max(all.slotsMax, r.slotsMax)
	}

	var storeNs uint64
	for _, h := range stack.Grid.PerOp {
		storeNs += h.Sum
	}
	// The accounting must add up, or the per-layer split means nothing.
	if calls != srvD.WriteFences {
		errs = append(errs, fmt.Sprintf("await wrapper ran %d times, server counted %d write fences", calls, srvD.WriteFences))
	}
	if all.ops != srvD.Requests {
		errs = append(errs, fmt.Sprintf("clients sent %d requests, server decoded %d", all.ops, srvD.Requests))
	}
	if storeNs+awaitNs > uint64(all.sumRTT) {
		errs = append(errs, fmt.Sprintf("store %d ns + await %d ns exceed summed window RTT %d ns", storeNs, awaitNs, all.sumRTT))
	}

	e2e = all.slices.e2e(wireQuietShare)

	n := float64(all.ops)
	rtt := float64(all.sumRTT)
	readH, writeH := stack.Grid.PerOp["read"], stack.Grid.PerOp[w.spec.writeOp]
	layer = map[string]float64{
		"wire.window_rtt_us_p50":       usPercentile(all.rtts, 0.50),
		"wire.window_rtt_us_p99":       usPercentile(all.rtts, 0.99),
		"wire.window_size_mean":        ratio(float64(srvD.Requests), float64(srvD.Batches)),
		"wire.bytes_per_op":            ratio(float64(srvD.BytesIn+srvD.BytesOut), float64(srvD.Requests)),
		"wire.self_share":              1 - ratio(float64(storeNs+awaitNs), rtt),
		"wire.conn_errors":             float64(srvD.ConnErrors),
		"store.read_us_p50":            histUs(readH, 0.50),
		"store.read_us_p99":            histUs(readH, 0.99),
		"store.write_us_p50":           histUs(writeH, 0.50),
		"store.write_us_p99":           histUs(writeH, 0.99),
		"store.seqlock_retry_per_read": ratio(float64(stack.Grid.SeqlockRetries), float64(readH.Count)),
		"store.copy_fallback_frac":     ratio(float64(stack.Grid.CopyFallbacks), float64(stack.Grid.ZeroCopyHits+stack.Grid.CopyFallbacks)),
		"store.go_allocs_per_op":       ratio(float64(procAfter.mallocs-procBefore.mallocs), n),
		"fa.await_us_p50":              usPercentile(awaitSamples, 0.50),
		"fa.await_us_p99":              usPercentile(awaitSamples, 0.99),
		"fa.await_share":               ratio(float64(awaitNs), rtt),
		"fa.watermark_lag_max":         float64(all.lagMax),
		"fa.log_slots_in_use_max":      float64(all.slotsMax),
		"go.gc_cpu_frac":               ratio(procAfter.gcCPU-procBefore.gcCPU, procAfter.allCPU-procBefore.allCPU),
	}
	layer["read_samples"], layer["write_samples"] = e2e["read_samples"], e2e["write_samples"]
	stackLayers(layer, &stack, n, float64(all.userBytes))
	return e2e, layer, all.ops, all.failed, errs
}

// readBack reads every record through the wire on connection 0 in
// pipelined windows and returns the acknowledged writes found missing or
// wrong, per check.
func (w *wireRun) readBack(check func(key uint32, status wire.Status, fields []store.Field) int) (int, error) {
	cl := w.st.clients[0]
	var resp wire.Response
	lost := 0
	for base := 0; base < w.spec.records; base += w.spec.depth {
		end := min(base+w.spec.depth, w.spec.records)
		for k := base; k < end; k++ {
			if err := cl.Send(&wire.Request{Op: wire.OpRead, Key: w.keys[k]}); err != nil {
				return lost, err
			}
		}
		if err := cl.Flush(); err != nil {
			return lost, err
		}
		for k := base; k < end; k++ {
			if err := cl.Recv(&resp); err != nil {
				return lost, err
			}
			lost += check(uint32(k), resp.Status, resp.Fields)
		}
	}
	return lost, nil
}

// fieldIndex maps a YCSB field name back to its index, -1 if foreign.
func fieldIndex(name string) int {
	if len(name) == len("field0") && name[:5] == "field" && name[5] >= '0' && name[5] <= '9' {
		return int(name[5] - '0')
	}
	return -1
}

// finalCheck returns the number of acknowledged writes a final read of
// key shows missing or wrong, reporting the first few through note.
func (w *wireRun) finalCheck(key uint32, found bool, fields []store.Field, note func(error)) int {
	if w.counter != nil {
		if !found {
			note(fmt.Errorf("final %s: missing", w.keys[key]))
			return 1
		}
		if err := w.counter.checkFinal(key, fields); err != nil {
			note(err)
			return 1
		}
		return 0
	}
	if !found {
		note(fmt.Errorf("final %s: missing", w.keys[key]))
		return nFields
	}
	lost := nFields - len(fields)
	if lost > 0 {
		note(fmt.Errorf("final %s: %d of %d fields", w.keys[key], len(fields), nFields))
	}
	for _, f := range fields {
		fi := fieldIndex(f.Name)
		if fi < 0 {
			lost++
			note(fmt.Errorf("final %s: foreign field %q", w.keys[key], f.Name))
			continue
		}
		if err := w.ycsb.checkFinal(key, uint8(fi), f.Value); err != nil {
			lost++
			note(err)
		}
	}
	return lost
}

// gridFields reads key from a grid as a deep-copied field list.
func gridFields(g *store.Grid, key string) ([]store.Field, bool, error) {
	var fields []store.Field
	err := g.Read(key, func(name string, value []byte) {
		fields = append(fields, store.Field{Name: name, Value: append([]byte(nil), value...)})
	})
	if errors.Is(err, store.ErrNotFound) {
		return nil, false, nil
	}
	return fields, err == nil, err
}

// runWire runs a wire workload end to end.
func runWire(spec *wireSpec, o opts) (*result, error) {
	if spec.conns > o.nproc {
		return nil, fmt.Errorf("%s needs %d connections, more than the %d CPUs", spec.name, spec.conns, o.nproc)
	}
	res := &result{}
	keys := keyNames(spec.records)
	w := &wireRun{spec: spec, keys: keys}
	for c := 0; c < spec.conns; c++ {
		w.conns = append(w.conns, &connState{stream: spec.gen(o.seed, c, spec.records, o.streamLen(wireStreamLen))})
	}
	var initial func(k int, fields []store.Field) []store.Field
	if spec.writeOp == "rmw" {
		rng := rand.New(rand.NewSource(o.seed))
		start := make([]int64, spec.records)
		for k := range start {
			start[k] = rng.Int63n(1 << 20)
		}
		w.counter = newCounterOracle(start, spec.conns)
		initial = func(k int, fields []store.Field) []store.Field {
			v := make([]byte, 8)
			putInt64(v, start[k])
			return append(fields, store.Field{Name: counterField, Value: v})
		}
	} else {
		w.ycsb = newYCSBOracle(spec.records, spec.conns)
		initial = func(k int, fields []store.Field) []store.Field {
			for f := 0; f < nFields; f++ {
				v := make([]byte, fieldLen)
				encodeValue(v, uint32(k), uint8(f), 0, 0)
				fields = append(fields, store.Field{Name: fieldNames[f], Value: v})
			}
			return fields
		}
	}

	var setups []float64
	var total time.Duration
	for {
		runtime.GC()
		t0 := time.Now()
		st, err := setupWire(spec, initial, keys)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		setups, total = append(setups, d.Seconds()), total+d
		if !o.setups.more(len(setups), total) {
			w.st = st
			break
		}
		st.close()
		releaseMemory()
	}
	defer func() {
		if w.st != nil {
			w.st.close()
		}
	}()

	dur := time.Duration(o.seconds * float64(time.Second))
	e2e, layer, ops, failed, errs := w.phase(dur, nil)
	res.attempted, res.failed = ops, failed
	res.checkErrs = append(res.checkErrs, errs...)
	if o.trace {
		tr := newTracer()
		traced, tl, tops, tfailed, terrs := w.phase(dur, tr)
		res.attempted += tops
		res.failed += tfailed
		res.checkErrs = append(res.checkErrs, terrs...)
		tl["trace_overhead"] = 1 - ratio(traced["throughput_ops"], e2e["throughput_ops"])
		layer = tl
		res.tracer = tr
	}
	for _, c := range w.conns {
		c.stream = nil
	}

	if o.tamper != nil {
		o.tamper(w.st.env)
	}
	note := res.noter()
	lost, err := w.readBack(func(key uint32, status wire.Status, fields []store.Field) int {
		return w.finalCheck(key, status == wire.StatusOK, fields, note)
	})
	if err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	res.lost = uint64(lost)

	env := w.st.env
	userBytes := float64(spec.records) * float64(len(keys[0])+spec.fields*spec.fieldLen)
	e2e["space_amp"] = heapBytesInUse(env) / userBytes
	e2e["setup_s"] = median(setups)
	runningHeap, poolBytes := liveGoHeap(), env.Pool.Size()

	rs, err := restartAll(spec.gridConfig(), env.Pool, o.restarts, o.workDir, res.tracer, func(g *store.Grid, count int) int {
		lost := 0
		if count != spec.records {
			note(fmt.Errorf("restart: %d records, want %d", count, spec.records))
		}
		for k := 0; k < spec.records; k++ {
			fields, found, err := gridFields(g, keys[k])
			if err != nil {
				note(err)
			}
			lost += w.finalCheck(uint32(k), found, fields, note)
		}
		return lost
	})
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	res.lost = max(res.lost, uint64(rs.lost))
	e2e["recover_s"] = slices.Min(rs.totalS)
	w.st.close()
	w.st = nil
	e2e["go_heap_mb"] = goHeapMB(runningHeap, liveGoHeap(), poolBytes)
	rs.layer(layer)
	res.e2e, res.layer = e2e, layer
	return res, nil
}
