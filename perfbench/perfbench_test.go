package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/store"
)

func value(key uint32, field, writer uint8, seq uint64) []byte {
	v := make([]byte, fieldLen)
	encodeValue(v, key, field, writer, seq)
	return v
}

func record(key uint32, writer uint8, seq uint64) []store.Field {
	fields := make([]store.Field, nFields)
	for f := range fields {
		fields[f] = store.Field{Name: fieldNames[f], Value: value(key, uint8(f), writer, seq)}
	}
	return fields
}

func counter(v int64) []store.Field {
	b := make([]byte, 8)
	putInt64(b, v)
	return []store.Field{{Name: counterField, Value: b}}
}

func TestValueCodec(t *testing.T) {
	v := value(42, 7, 2, 123456789)
	k, f, ver, ok := decodeValue(v)
	if !ok || k != 42 || f != 7 || ver != (version{writer: 2, seq: 123456789}) {
		t.Fatalf("round trip: %d %d %+v %v", k, f, ver, ok)
	}
	for _, i := range []int{0, 5, 9, 16, 99} {
		bad := append([]byte(nil), v...)
		bad[i] ^= 1
		if k2, f2, ver2, ok := decodeValue(bad); ok && k2 == k && f2 == f && ver2 == ver {
			t.Errorf("flipping byte %d went unnoticed", i)
		}
	}
	if _, _, _, ok := decodeValue(v[:fieldLen-1]); ok {
		t.Error("short value decoded")
	}
}

func TestYCSBOracle(t *testing.T) {
	o := newYCSBOracle(4, 2)
	if err := o.checkRead(0, 1, record(1, 0, 0)); err != nil {
		t.Fatalf("initial record: %v", err)
	}
	if err := o.checkFinal(1, 3, value(1, 3, 0, 0)); err != nil {
		t.Fatalf("untouched field: %v", err)
	}
	o.ack(0, 1, 3, 5)
	o.ack(1, 1, 3, 9)

	fresh := record(1, 0, 0)
	fresh[3].Value = value(1, 3, 1, 5)
	if err := o.checkRead(0, 1, fresh); err != nil {
		t.Errorf("own acked write: %v", err)
	}
	fresh[3].Value = value(1, 3, 2, 9)
	if err := o.checkRead(0, 1, fresh); err != nil {
		t.Errorf("another connection's write: %v", err)
	}
	if err := o.checkFinal(1, 3, value(1, 3, 1, 5)); err != nil {
		t.Errorf("final = conn 0's last write: %v", err)
	}
	if err := o.checkFinal(1, 3, value(1, 3, 2, 9)); err != nil {
		t.Errorf("final = conn 1's last write: %v", err)
	}

	stale := record(1, 0, 0)
	stale[3].Value = value(1, 3, 1, 4)
	if o.checkRead(0, 1, stale) == nil {
		t.Error("read older than the reader's own acked write passed")
	}
	if o.checkRead(0, 1, record(1, 0, 0)) == nil {
		t.Error("read of the initial value after an acked write passed")
	}
	if o.checkFinal(1, 3, value(1, 3, 1, 4)) == nil {
		t.Error("stale final value passed")
	}
	if o.checkFinal(1, 3, value(1, 3, 0, 0)) == nil {
		t.Error("final value lost every acked write but passed")
	}

	if o.checkRead(0, 2, record(3, 0, 0)) == nil {
		t.Error("cross-key read passed")
	}
	crossField := record(2, 0, 0)
	crossField[4].Value = value(2, 5, 0, 0)
	if o.checkRead(0, 2, crossField) == nil {
		t.Error("cross-field read passed")
	}
	if o.checkFinal(1, 3, value(2, 3, 1, 5)) == nil {
		t.Error("cross-key final value passed")
	}
	if o.checkRead(0, 2, record(2, 0, 0)[:nFields-1]) == nil {
		t.Error("read missing a field passed")
	}
}

func TestCounterOracle(t *testing.T) {
	o := newCounterOracle([]int64{100, 200}, 2)
	o.ack(0, 0, 3)
	o.ack(1, 0, 4)
	if err := o.checkRead(0, 0, counter(103)); err != nil {
		t.Errorf("read seeing own deltas: %v", err)
	}
	if o.checkRead(0, 0, counter(102)) == nil {
		t.Error("read below own acknowledged deltas passed")
	}
	if err := o.checkFinal(0, counter(107)); err != nil {
		t.Errorf("exact final: %v", err)
	}
	if o.checkFinal(0, counter(103)) == nil {
		t.Error("lost delta passed")
	}
	if o.checkFinal(0, counter(108)) == nil {
		t.Error("phantom delta passed")
	}
	if o.checkFinal(1, nil) == nil || o.checkRead(1, 1, nil) == nil {
		t.Error("missing counter record passed")
	}
	if o.checkFinal(1, record(1, 0, 0)) == nil {
		t.Error("non-counter record passed")
	}
}

func TestShadow(t *testing.T) {
	s := newShadow(3)
	for f := 0; f < nFields; f++ {
		s.put(1, uint8(f), 10)
	}
	s.put(1, 2, 11)
	var seen uint32
	for f := 0; f < nFields; f++ {
		seq := uint64(10)
		if f == 2 {
			seq = 11
		}
		if err := s.fieldCheck(1, fieldNames[f], value(1, uint8(f), churnWriter, seq), &seen); err != nil {
			t.Fatalf("field %d: %v", f, err)
		}
	}
	if seen != allFields {
		t.Fatalf("seen %b", seen)
	}
	if s.fieldCheck(1, fieldNames[2], value(1, 2, churnWriter, 10), &seen) == nil {
		t.Error("stale field passed")
	}
	if s.fieldCheck(1, fieldNames[0], value(0, 0, churnWriter, 10), &seen) == nil {
		t.Error("cross-key field passed")
	}
	s.del(1)
	if s.nLive != 0 || s.live[1] {
		t.Error("delete not tracked")
	}
}

// small shrinks a run so a test finishes in seconds.
func small(t *testing.T, workload string) opts {
	return opts{workload: workload, seed: 7, seconds: 0.3, nproc: 2,
		setups: repeat{min: 1, max: 1}, restarts: repeat{min: 2, max: 2},
		workDir: t.TempDir(), churnRecords: 2_000, streamOps: 1_000_000}
}

func smallSpec(s wireSpec, records int) *wireSpec {
	s.records = records
	return &s
}

func mustRun(t *testing.T, o opts, spec *wireSpec) *result {
	t.Helper()
	var res *result
	var err error
	if spec != nil {
		res, err = runWire(spec, o)
	} else {
		res, err = runChurn(o)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadsCorrect(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *wireSpec
	}{
		{"ycsb-a-wire", smallSpec(ycsbAWire, 500)},
		{"counters-wire", smallSpec(countersWire, 100)},
		{"churn-recover", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := small(t, tc.name)
			o.trace = true
			res := mustRun(t, o, tc.spec)
			if !res.correct() {
				t.Fatalf("run failed: failed=%d lost=%d errors=%v", res.failed, res.lost, res.checkErrs)
			}
			if res.attempted == 0 {
				t.Fatal("no ops attempted")
			}
			for _, m := range endToEnd {
				if _, ok := res.e2e[m.name]; !ok {
					t.Errorf("end-to-end metric %s missing", m.name)
				}
			}
			for _, m := range perLayer {
				if _, ok := res.layer[m.name]; !ok && m.name != "error_rate" && m.name != "lost_acked_writes" {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			if res.tracer.count(spanOpen) != 2 || res.tracer.count(spanRebuild) != 2 {
				t.Error("restart spans missing")
			}
			first := spanWindow
			if tc.spec == nil {
				first = spanStoreOp
			}
			if res.tracer.count(first) == 0 {
				t.Errorf("no %s spans", first)
			}
		})
	}
}

func TestRunFailsOnInjectedFault(t *testing.T) {
	t.Run("ycsb-a-wire cross-key value", func(t *testing.T) {
		o := small(t, "ycsb-a-wire")
		o.tamper = func(env *bench.Env) {
			bad := []store.Field{{Name: fieldNames[3], Value: value(6, 3, 0, 0)}}
			if err := env.Grid.Update(keyName(5), bad); err != nil {
				t.Error(err)
			}
			env.DrainDurable()
		}
		if res := mustRun(t, o, smallSpec(ycsbAWire, 500)); res.correct() || res.lost == 0 {
			t.Fatalf("cross-key value not caught: lost=%d errors=%v", res.lost, res.checkErrs)
		}
	})
	t.Run("ycsb-a-wire stale value", func(t *testing.T) {
		o := small(t, "ycsb-a-wire")
		// Every field of the single record is written many times in the
		// run, so the initial load value is stale for each.
		o.tamper = func(env *bench.Env) {
			if err := env.Grid.Update(keyName(0), record(0, 0, 0)); err != nil {
				t.Error(err)
			}
			env.DrainDurable()
		}
		if res := mustRun(t, o, smallSpec(ycsbAWire, 1)); res.correct() || res.lost == 0 {
			t.Fatalf("stale value not caught: lost=%d errors=%v", res.lost, res.checkErrs)
		}
	})
	t.Run("counters-wire lost delta", func(t *testing.T) {
		o := small(t, "counters-wire")
		o.tamper = func(env *bench.Env) {
			if err := env.Grid.AddDelta(keyName(0), counterField, -1); err != nil {
				t.Error(err)
			}
			env.DrainDurable()
		}
		if res := mustRun(t, o, smallSpec(countersWire, 100)); res.correct() || res.lost == 0 {
			t.Fatalf("lost delta not caught: lost=%d errors=%v", res.lost, res.checkErrs)
		}
	})
	t.Run("counters-wire missing record", func(t *testing.T) {
		o := small(t, "counters-wire")
		o.tamper = func(env *bench.Env) {
			if err := env.Grid.Delete(keyName(1)); err != nil {
				t.Error(err)
			}
			env.DrainDurable()
		}
		if res := mustRun(t, o, smallSpec(countersWire, 100)); res.correct() || res.lost == 0 {
			t.Fatalf("missing record not caught: lost=%d errors=%v", res.lost, res.checkErrs)
		}
	})
	for _, tc := range []struct {
		name   string
		tamper func(r *store.Grid, live []string) error
	}{
		{"missing record", func(g *store.Grid, live []string) error { return g.Delete(live[0]) }},
		{"stale value", func(g *store.Grid, live []string) error {
			// Version 0 is older than any version the run wrote.
			return g.Update(live[0], []store.Field{{Name: fieldNames[0], Value: value(uint32(indexOf(live[0])), 0, churnWriter, 0)}})
		}},
		{"cross-key value", func(g *store.Grid, live []string) error {
			return g.Update(live[0], []store.Field{{Name: fieldNames[0], Value: value(uint32(indexOf(live[1])), 0, churnWriter, 1)}})
		}},
	} {
		t.Run("churn-recover "+tc.name, func(t *testing.T) {
			o := small(t, "churn-recover")
			o.tamper = func(env *bench.Env) {
				var live []string
				for i := 0; len(live) < 2; i++ {
					if err := env.Grid.Read(keyName(i), func(string, []byte) {}); err == nil {
						live = append(live, keyName(i))
					}
				}
				if err := tc.tamper(env.Grid, live); err != nil {
					t.Error(err)
				}
			}
			if res := mustRun(t, o, nil); res.correct() || res.lost == 0 {
				t.Fatalf("%s not caught: lost=%d errors=%v", tc.name, res.lost, res.checkErrs)
			}
		})
	}
}

func indexOf(key string) int {
	n, _ := strconv.Atoi(key[len("user"):])
	return n
}

func TestStreamsDeterministic(t *testing.T) {
	if !reflect.DeepEqual(genYCSBA(3, 1, 1000, 5000), genYCSBA(3, 1, 1000, 5000)) {
		t.Error("ycsb-a stream differs for one seed")
	}
	if reflect.DeepEqual(genYCSBA(3, 1, 1000, 5000), genYCSBA(4, 1, 1000, 5000)) {
		t.Error("ycsb-a stream ignores the seed")
	}
	if reflect.DeepEqual(genYCSBA(3, 0, 1000, 5000), genYCSBA(3, 1, 1000, 5000)) {
		t.Error("connections share one stream")
	}
	if !reflect.DeepEqual(genCounters(3, 0, 100, 5000), genCounters(3, 0, 100, 5000)) {
		t.Error("counter stream differs for one seed")
	}
	g1, g2 := newChurnGen(3, 1000), newChurnGen(3, 1000)
	for phase := 0; phase < 2; phase++ {
		if !reflect.DeepEqual(g1.gen(20000), g2.gen(20000)) || g1.next != g2.next {
			t.Errorf("churn stream phase %d differs for one seed", phase)
		}
	}
}

// TestChurnCountsRepeat runs churn-recover twice with one seed and a fixed
// op count: with one goroutine the nvm, fa log and heap counts repeat
// exactly.
func TestChurnCountsRepeat(t *testing.T) {
	counts := func() []uint64 {
		o := small(t, "churn-recover")
		o.maxOps = 20_000
		res := mustRun(t, o, nil)
		if !res.correct() {
			t.Fatalf("run failed: %v", res.checkErrs)
		}
		s := res.stack
		return []uint64{s.NVM.Stores, s.NVM.PWBs, s.NVM.PFences, s.NVM.PSyncs, s.FA.LogEntries,
			s.Heap.ObjAllocs, s.Heap.ObjFrees, s.Heap.SmallAllocs, s.Heap.SmallFrees,
			s.Heap.BumpAllocs, s.Heap.ReuseAllocs, s.Heap.TransientReuse, s.Heap.FreeBlocks}
	}
	a, b := counts(), counts()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counts differ between two runs of one seed:\n%v\n%v", a, b)
	}
}

func TestLoadLimit(t *testing.T) {
	o := small(t, "ycsb-a-wire")
	o.nproc = 1
	if _, err := runWire(smallSpec(ycsbAWire, 10), o); err == nil {
		t.Fatal("ran 2 connections on 1 CPU")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("workload %s is not one the program runs (%v)", w.Name, workloads)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s %s, program prints %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestHistPercentile(t *testing.T) {
	var h obs.Histogram
	if v := histUs(h.Snapshot(), 0.5); v != 0 {
		t.Errorf("empty histogram p50 = %v", v)
	}
	for ns := uint64(10_000); ns < 20_000; ns += 10 {
		h.ObserveNs(ns)
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 15}, {0.99, 19.9}} {
		if got := histUs(h.Snapshot(), tc.p); math.Abs(got-tc.want)/tc.want > 0.03 {
			t.Errorf("p%v = %.3f us, want about %.3f", tc.p, got, tc.want)
		}
	}
}

func TestPooledPercentile(t *testing.T) {
	sets := [][]int64{{5000, 1000, 9000}, nil, {2000, 2000, 7000, 3000}, {8000}}
	var all []int64
	for _, s := range sets {
		all = append(all, s...)
	}
	for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := pooledPercentile(sets, p), usPercentile(slices.Clone(all), p); got != want {
			t.Errorf("p%v = %v us, merged sets give %v", p, got, want)
		}
	}
	if v := pooledPercentile([][]int64{nil}, 0.5); v != 0 {
		t.Errorf("no samples: p50 = %v", v)
	}
}

func TestSlicerQuiet(t *testing.T) {
	// Two quiet slices at 1 us and one slice slowed to half speed at
	// 9 us: the figures come from the quiet two alone.
	s := &slicer{width: time.Second, slices: []slice{
		{ops: 100, reads: []int64{1000}, writes: []int64{1000}},
		{ops: 50, reads: []int64{9000}, writes: []int64{9000}},
		{ops: 90, reads: []int64{1000}, writes: []int64{1000}},
	}}
	m := s.e2e(0.8)
	if m["throughput_ops"] != 95 || m["read_p99_us"] != 1 || m["write_p50_us"] != 1 {
		t.Errorf("figures %v include the slow slice", m)
	}
	if m["read_samples"] != 3 || m["write_samples"] != 3 {
		t.Errorf("sample counts %v leave out a slice", m)
	}
}
