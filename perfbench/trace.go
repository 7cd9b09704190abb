package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval around a call into a layer. Times are
// nanoseconds since the tracer's epoch; Parent indexes the span that
// caused this one (-1 for a root); spans of one request or stream sort
// share Req.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// since returns t as an offset from the tracer's epoch.
func (tr *tracer) since(t time.Time) time.Duration { return t.Sub(tr.epoch) }

// add records a span from start to end (offsets from the epoch) and
// returns its id.
func (tr *tracer) add(name string, parent int, req int64, start, end time.Duration) int {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Name: name, Start: int64(start), End: int64(end), Parent: parent, Req: req})
	return id
}

// write stores the spans as JSON lines, one span per line.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
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
