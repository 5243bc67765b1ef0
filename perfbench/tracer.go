package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one replayed
// statement share its query id; Parent is the enclosing span's id (0
// for a root).
type span struct {
	Name   string `json:"name"`
	Query  int32  `json:"query"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootSpan names the span around one statement's served path.
const rootSpan = "query"

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends. A nil tracer records nothing, which is how the replay runs a
// statement with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the time since the tracer started (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// start opens a span and returns its id.
func (t *tracer) start(name string, query, parent int32) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Query: query, ID: id, Parent: parent, Start: t.now()})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id-1].End = t.now()
}

// record adds a span measured elsewhere (a batch of calls timed as
// one interval).
func (t *tracer) record(name string, query, parent int32, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Query: query, ID: int32(len(t.spans) + 1), Parent: parent, Start: start, End: end})
}

// layerTimes is the per-name aggregate of a span set: total duration,
// total self time (duration minus direct children's durations), and
// span count. rootDur and rootSelf sum over the replayed statements'
// root spans (rootSpan); other parentless spans are calibration calls
// made outside the served path.
type layerTimes struct {
	dur, self map[string]int64
	count     map[string]int
	rootDur   int64
	rootSelf  int64
}

func (t *tracer) aggregate() layerTimes {
	lt := layerTimes{dur: map[string]int64{}, self: map[string]int64{}, count: map[string]int{}}
	childDur := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childDur[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		self := s.dur() - childDur[s.ID]
		lt.dur[s.Name] += s.dur()
		lt.self[s.Name] += self
		lt.count[s.Name]++
		if s.Name == rootSpan {
			lt.rootDur += s.dur()
			lt.rootSelf += self
		}
	}
	return lt
}

// write dumps the spans as JSON lines.
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
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
