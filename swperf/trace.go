package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one tracer keeps; later spans are counted
// as dropped, so a long traced run cannot grow without limit. A traced
// phase samples its operations (see sampleEvery) so that the buffer
// lasts the whole phase and dropping does not happen.
const maxSpans = 1 << 16

// sampleEvery returns the op sampling period that keeps the spans of
// about expectedOps operations of one tracer, one span each, within
// half of maxSpans; the other half is left to the spans that belong to
// no op (rounds, membership events).
func sampleEvery(expectedOps float64) int64 {
	return max(1, int64(math.Ceil(expectedOps/(maxSpans/2))))
}

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Start and End are nanoseconds since the trace
// origin; Parent is the enclosing span's ID (0 at the top); Op ties
// the spans of one operation together.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory for one goroutine. A nil *tracer is
// the untraced mode: every method is a no-op returning zero. The spans
// of an operation (op >= 0) are kept for one op in every; spans of no
// operation (op -1) are all kept.
type tracer struct {
	origin  time.Time
	ids     *atomic.Int64
	every   int64
	spans   []span
	dropped int64
}

// newTracers returns n tracers sharing one origin and ID sequence, each
// keeping the spans of one op in every.
func newTracers(n int, every int64) []*tracer {
	origin := time.Now()
	ids := new(atomic.Int64)
	ts := make([]*tracer, n)
	for i := range ts {
		ts[i] = &tracer{origin: origin, ids: ids, every: max(every, 1)}
	}
	return ts
}

// begin reserves a span ID, for a span whose children are recorded
// before it ends.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under id (0 draws a fresh one) and
// returns the ID, or 0 when the op is not sampled.
func (t *tracer) record(name string, id, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if op >= 0 && op%t.every != 0 {
		return 0
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Op: op,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// writeSpans writes every tracer's spans as JSON lines to path and
// returns the number written and dropped.
func writeSpans(path string, ts []*tracer) (written, dropped int64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return 0, 0, fmt.Errorf("write spans: %w", err)
			}
			written++
		}
		dropped += t.dropped
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("write spans: %w", err)
	}
	return written, dropped, f.Close()
}
