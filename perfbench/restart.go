package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/nvm"
	"repro/internal/store"
)

// copyImage writes the pool's current bytes to dir/pool-0.nvm, where
// bench.NewEnv's file-backed mode looks for pool 0. All-zero chunks are
// skipped, so the copy is as sparse as the image.
func copyImage(pool *nvm.Pool, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "pool-0.nvm"))
	if err != nil {
		return err
	}
	defer f.Close()
	size := pool.Size()
	if err := f.Truncate(int64(size)); err != nil {
		return fmt.Errorf("size image: %w", err)
	}
	buf := make([]byte, 1<<20)
	for off := uint64(0); off < size; off += uint64(len(buf)) {
		chunk := buf
		if rem := size - off; rem < uint64(len(chunk)) {
			chunk = chunk[:rem]
		}
		pool.ReadInto(off, chunk)
		if allZero(chunk) {
			continue
		}
		if _, err := f.WriteAt(chunk, int64(off)); err != nil {
			return fmt.Errorf("write image: %w", err)
		}
	}
	return f.Close()
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// restartStats collects one run's restarts.
type restartStats struct {
	totalS, openMs, rebuildMs, replayMs, markMs, sweepMs []float64
	liveObjects, replayedTx                              uint64
	lost                                                 int // worst restart's lost acknowledged writes
}

// restartAll reopens copies of pool with cfg, as often as rep says, the
// way a restarted gridserver -data would: heap open with log replay, mark
// and sweep (core.open), then the first Count, which rebuilds the
// volatile mirrors (store.rebuild). The image is taken without closing or draining the
// running stack, so only what the program had made durable survives.
// verify reads the restarted grid back and returns the acknowledged
// writes it found missing or wrong.
func restartAll(cfg bench.GridConfig, pool *nvm.Pool, rep repeat, workDir string, tr *tracer, verify func(g *store.Grid, count int) int) (*restartStats, error) {
	rs := &restartStats{}
	var total time.Duration
	for i := 0; rep.more(i, total); i++ {
		dir := filepath.Join(workDir, fmt.Sprintf("restart-%d", i))
		if err := copyImage(pool, dir); err != nil {
			return nil, err
		}
		c := cfg
		c.DataDir = dir
		runtime.GC()
		t0 := time.Now()
		env, err := bench.NewEnv(c)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		t1 := time.Now()
		count := env.Grid.Count()
		t2 := time.Now()
		total += t2.Sub(t0)
		tr.record(spanOpen, uint64(i), 0, t0, t1)
		tr.record(spanRebuild, uint64(i), uint64(i), t1, t2)
		rec := env.Heap.RecoveryObs().Snapshot()
		rs.totalS = append(rs.totalS, t2.Sub(t0).Seconds())
		rs.openMs = append(rs.openMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		rs.rebuildMs = append(rs.rebuildMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
		rs.replayMs = append(rs.replayMs, float64(rec.ReplayNs)/1e6)
		rs.markMs = append(rs.markMs, float64(rec.MarkNs)/1e6)
		rs.sweepMs = append(rs.sweepMs, float64(rec.SweepNs)/1e6)
		rs.liveObjects, rs.replayedTx = rec.LiveObjects, rec.ReplayedTx
		if lost := verify(env.Grid, count); lost > rs.lost {
			rs.lost = lost
		}
		env.Close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// layer fills the core.* and store.rebuild_ms per-layer metrics.
func (rs *restartStats) layer(m map[string]float64) {
	m["core.open_ms"] = median(rs.openMs)
	m["core.replay_ms"] = median(rs.replayMs)
	m["core.mark_ms"] = median(rs.markMs)
	m["core.sweep_ms"] = median(rs.sweepMs)
	m["store.rebuild_ms"] = median(rs.rebuildMs)
	m["core.live_objects"] = float64(rs.liveObjects)
	m["core.replayed_tx"] = float64(rs.replayedTx)
}
