package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded interval of the traced pass: the benchmark's own
// spans around each call it makes into a layer. Spans of one request
// share Req; Parent indexes the causing span in the same log, -1 for a
// root.
type span struct {
	Source string `json:"source"` // "client" (closed loop) or "replay"
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the pass ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(source, name string, req int64, parent int32, start, end time.Time) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{
		Source: source, Name: name, Req: req, ID: id, Parent: parent,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// client records one closed-loop request: the root from send to the
// full body, split at the request write and the first response byte
// (nil when the transport failed before reaching them).
func (l *spanLog) client(req int64, start time.Time, wrote, firstByte *time.Time, end time.Time) {
	root := l.add("client", "client.request", req, -1, start, end)
	if wrote == nil || firstByte == nil {
		return
	}
	l.add("client", "client.send", req, root, start, *wrote)
	l.add("client", "client.wait", req, root, *wrote, *firstByte)
	l.add("client", "client.read", req, root, *firstByte, end)
}

// write dumps the log as NDJSON.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
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
