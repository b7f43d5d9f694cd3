package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval, recorded by the benchmark around a call
// into a layer. Parent 0 marks a root span. Attrs carry counts or phase
// times measured inside the span.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is not safe for
// concurrent use: goroutines collect their own intervals and the owner
// adds them afterwards. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]float64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID:     id,
		Parent: parent,
		Name:   name,
		Start:  int64(start.Sub(t.t0)),
		End:    int64(end.Sub(t.t0)),
		Attrs:  attrs,
	})
	return id
}

// begin opens a span starting now; end closes it. Spans opened this way
// can be named as parents while still open.
func (t *tracer) begin(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now, nil)
}

func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Attrs = attrs
}

// write stores the spans as one JSON document and returns its path.
func (t *tracer) write(dir, name string) (string, error) {
	path := filepath.Join(dir, name)
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
