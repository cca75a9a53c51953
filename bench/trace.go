package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The benchmark's own tracer: spans are recorded around the calls into
// each layer, never inside the program under test. A nil *tracer is
// tracing off and every method is a no-op, so the measured path carries
// one nil check per layer call and nothing else.

type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 = root
	Run    int                `json:"run"`    // shared by the spans of one trial; 0 = not a trial
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"` // duration minus the part child spans cover
	Counts map[string]float64 `json:"counts,omitempty"`
}

type tracer struct {
	epoch time.Time
	spans []*span
	open  []*span // the spans begun and not yet ended, innermost last
	runs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is nanoseconds since the tracer started, 0 with tracing off.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span under the innermost open span, whose run
// identifier it inherits; the caller closes it with end. Spans nest
// strictly: the benchmark drives every layer from one goroutine at a
// time (kernels that run on a simulated or native thread record their
// spans from it while the main goroutine waits in Run).
func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Name: name, Start: t.now()}
	if n := len(t.open); n > 0 {
		s.Parent, s.Run = t.open[n-1].ID, t.open[n-1].Run
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	return s
}

// beginTrial opens the root span of one trial under a fresh run
// identifier, which every span begun inside it shares.
func (t *tracer) beginTrial(name string) *span {
	s := t.begin(name)
	if s != nil {
		t.runs++
		s.Run = t.runs
	}
	return s
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != s {
		panic("bench: span " + s.Name + " ended out of order")
	}
	t.open = t.open[:len(t.open)-1]
	s.End = t.now()
}

// split records two adjacent spans covering [start, now) under the
// innermost open span: a for the first `first` of it, b for the rest.
// It is how a trial's set-up and timed phases, which run inside one
// exported call, are told apart from the outside: the call's own Result
// says how long the timed phase was.
func (t *tracer) split(start int64, first time.Duration, a, b string) {
	if t == nil {
		return
	}
	now := t.now()
	mid := min(max(start+int64(first), start), now)
	sa := t.begin(a)
	t.end(sa)
	sa.Start, sa.End = start, mid
	sb := t.begin(b)
	t.end(sb)
	sb.Start, sb.End = mid, now
}

func (s *span) count(key string, v float64) {
	if s == nil {
		return
	}
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[key] = v
}

// write computes self times and stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	byID := make(map[int]*span, len(t.spans))
	for _, s := range t.spans {
		s.Self = s.End - s.Start
		byID[s.ID] = s
	}
	for _, s := range t.spans {
		if p := byID[s.Parent]; p != nil {
			p.Self -= s.End - s.Start
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	j, err := json.MarshalIndent(struct {
		Spans []*span `json:"spans"`
	}{t.spans}, "", " ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, append(j, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
