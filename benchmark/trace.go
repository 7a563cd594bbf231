package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them as Chrome trace JSON when
// the benchmark ends. A nil *tracer records nothing, so every call site
// may trace unconditionally; end-to-end metrics are always taken with a
// nil tracer.
//
// All spans are recorded from the benchmark's own files, around the calls
// into each layer. Nesting is positional (Chrome's "X" events nest by
// containment on one tid); spans of one request share its transaction id
// in args.id.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

type span struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since trace start
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span on lane tid and returns the function that closes it.
func (t *tracer) begin(name string, tid int) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.add(name, tid, start, time.Now(), 0) }
}

// add records a finished span; id != 0 tags it with a transaction id.
func (t *tracer) add(name string, tid int, start, end time.Time, id uint64) {
	if t == nil {
		return
	}
	s := span{
		Name: name, Ph: "X", Pid: 1, Tid: tid,
		Ts:  float64(start.Sub(t.base).Nanoseconds()) / 1e3,
		Dur: float64(end.Sub(start).Nanoseconds()) / 1e3,
	}
	if id != 0 {
		s.Args = map[string]any{"id": id}
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps the spans to path (creating its directory).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"traceEvents": t.spans, "displayTimeUnit": "ms"})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
