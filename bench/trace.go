package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Spans of one pass share Pass; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pass   int    `json:"pass"`
	Chunk  int    `json:"chunk"`
	Bytes  int64  `json:"bytes"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the span overhead is measured: the same replay with
// and without one. Not safe for concurrent use; each client owns its own.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) begin(name string, parent, pass, chunk int, bytes int64) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Pass: pass, Chunk: chunk, Bytes: bytes,
		Start: int64(time.Since(r.epoch)),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.epoch))
}

// merge appends o's spans, renumbering them past r's.
func (r *recorder) merge(o *recorder) {
	off := len(r.spans)
	shift := int64(o.epoch.Sub(r.epoch))
	for _, s := range o.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		s.Start += shift
		s.End += shift
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns, per span name and pass, the summed self time in
// nanoseconds: each span's duration minus the part its children cover.
func (r *recorder) selfTimes() map[string]map[int]int64 {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]map[int]int64{}
	for _, s := range r.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int]int64{}
		}
		out[s.Name][s.Pass] += s.End - s.Start - child[s.ID]
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
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
