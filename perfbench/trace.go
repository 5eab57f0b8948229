package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// spanKind names a layer boundary the benchmark can see from outside the
// program.
type spanKind uint8

const (
	spanWindow  spanKind = iota // one client pipeline window, id = conn:window seq
	spanAwait                   // one durability wait the server made through the wrapper
	spanStoreOp                 // one Grid call of churn-recover, id = op index
	spanOpen                    // heap open + recovery of one restart, id = restart index
	spanRebuild                 // first Count (mirror rebuild) of one restart, parent = its core.open
)

var spanNames = [...]string{"wire.window", "fa.await", "store.op", "core.open", "store.rebuild"}

func (k spanKind) String() string { return spanNames[k] }

// span holds no pointers, so a traced run's millions of spans cost the
// garbage collector nothing to scan.
type span struct {
	kind       spanKind
	id, parent uint64
	start, end int64 // ns since the tracer was created
}

// tracer keeps spans in memory and writes them out once the run ends. A
// nil tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) record(kind spanKind, id, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{kind: kind, id: id, parent: parent, start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count returns the number of spans recorded of kind.
func (t *tracer) count(kind spanKind) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.kind == kind {
			n++
		}
	}
	return n
}

// write stores the spans as CSV under dir and returns the file path.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "name,id,parent,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		id := strconv.FormatUint(s.id, 10)
		if s.kind == spanWindow {
			id = fmt.Sprintf("%d:%d", s.id>>32, s.id&(1<<32-1))
		}
		fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", s.kind, id, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
