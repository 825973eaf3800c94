package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req; a
// span's Parent is the span that caused it (0: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. The traced run is
// single-threaded (the replicas advance in lock-step), so it takes no
// lock.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(req, parent int, layer, name string, start time.Time, d time.Duration) int {
	s := start.Sub(t.epoch).Nanoseconds()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

// timed runs f as one span.
func (t *tracer) timed(req, parent int, layer, name string, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	d := time.Since(start)
	return t.add(req, parent, layer, name, start, d), d
}

// spanTimes are the durations of every span of one layer and name, in
// microseconds and in recording order, and their self times: the duration
// minus that of the span's child spans.
type spanTimes struct{ total, self []float64 }

// times groups the spans by "layer/name".
func (t *tracer) times() map[string]*spanTimes {
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanTimes)
	for _, s := range t.spans {
		key := s.Layer + "/" + s.Name
		st := out[key]
		if st == nil {
			st = &spanTimes{}
			out[key] = st
		}
		d := s.End - s.Start
		st.total = append(st.total, float64(d)/1e3)
		st.self = append(st.self, float64(d-children[s.ID])/1e3)
	}
	return out
}

// has reports whether any span of the layer was recorded.
func (t *tracer) has(layer string) bool {
	for _, s := range t.spans {
		if s.Layer == layer {
			return true
		}
	}
	return false
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
