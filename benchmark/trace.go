package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Benchmark-side spans: one record per call into a layer, taken from outside
// the program under test. They live in memory for the whole run and are
// written once, at exit. A nil *spanLog records nothing, which is how the
// untraced run shares the traced run's code.

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Op      int    `json:"op"`     // spans of one op share this id
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil log).
func (l *spanLog) add(name string, parent, op int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartUS: start.Sub(l.t0).Microseconds(), EndUS: end.Sub(l.t0).Microseconds(),
	})
	return id
}

// reserve allocates an id for a span whose children finish first; the span
// is completed with finish.
func (l *spanLog) reserve(name string, parent, op int, start time.Time) int {
	if l == nil {
		return 0
	}
	return l.add(name, parent, op, start, start)
}

func (l *spanLog) finish(id int, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].EndUS = end.Sub(l.t0).Microseconds()
	l.mu.Unlock()
}

// write stores the spans as JSON under dir.
func (l *spanLog) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	l.mu.Lock()
	b, err := json.Marshal(map[string]any{"workload": workload, "spans": l.spans})
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
