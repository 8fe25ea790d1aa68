package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// A span is one timed call into a layer, recorded from outside: the harness
// wraps the public function it calls. Parent is the index of the enclosing
// span (-1 at the top), Op the timed op it belongs to (-1 for a layer probe
// outside any op). Start and End are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// A tracer keeps spans in memory until the run ends. It is used from the
// harness goroutine only. A nil tracer records nothing, which is how an
// untraced op runs the same code path.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// span times fn under name, as a child of the innermost open span, and
// returns fn's duration in seconds.
func (t *tracer) span(name string, fn func()) float64 {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start).Seconds()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	return end.Sub(start).Seconds()
}

// record adds a span that was timed elsewhere — by rank 0 inside a cluster
// run — as a child of the innermost open span.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// write stores the spans with the run's header as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, header any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Header any    `json:"header"`
		Spans  []span `json:"spans"`
	}{header, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
