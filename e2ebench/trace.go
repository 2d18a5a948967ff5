package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// A span is one call into a layer, recorded from the benchmark's side of
// the call: its name, when it started and ended (ns on the recording
// process's clock), and the span that caused it. All spans of one datagram
// share its id (flow << 40 | sequence).
type span struct {
	id           uint64
	name, parent string
	start, end   int64
}

// maxSpans bounds the spans one goroutine keeps, so a traced run's memory
// stays flat however long it runs; later spans are not kept.
const maxSpans = 1 << 16

// spanLog is one goroutine's span buffer.
type spanLog struct {
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{spans: make([]span, 0, maxSpans)}
}

func datagramID(flow uint32, seq uint64) uint64 { return uint64(flow)<<40 | seq }

func (l *spanLog) add(id uint64, name, parent string, start, end int64) {
	if len(l.spans) == cap(l.spans) {
		return
	}
	l.spans = append(l.spans, span{id: id, name: name, parent: parent, start: start, end: end})
}

// writeSpans writes the logs as JSON lines to path.
func writeSpans(path string, logs ...*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID     uint64 `json:"id"`
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(rec{s.id, s.name, s.parent, s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
