package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of one
// operation (or one fleet cell) share Trace; Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Start  int64  `json:"start_ns"` // since the window opened
	End    int64  `json:"end_ns"`
	child  int64  // nanoseconds covered by direct children
}

// tracer keeps the spans of one window in memory. A nil *tracer records
// nothing, so untraced runs pay only the nil checks.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int // indices of open spans
	traces int
}

func (t *tracer) setEpoch(e time.Time) {
	if t != nil {
		t.epoch = e
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, ID: len(t.spans) + 1, Start: int64(time.Since(t.epoch))}
	if n := len(t.stack); n > 0 {
		p := &t.spans[t.stack[n-1]]
		s.Parent, s.Trace = p.ID, p.Trace
	} else {
		t.traces++
		s.Trace = t.traces
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
	if s.Parent > 0 {
		t.spans[s.Parent-1].child += s.End - s.Start
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - s.child)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
