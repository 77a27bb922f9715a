package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// A span is one timed interval at a layer boundary. Parent is the index of
// the span that caused it (-1 for a root); spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
}

// maxSpans bounds what the recorder keeps in memory. Totals stay exact past
// the bound (they are accumulated as spans close); only the written list is
// cut short, and Dropped says by how many.
const maxSpans = 1 << 19

// layerTime is the accumulated time of every span of one name. Self is the
// time not covered by child spans.
type layerTime struct {
	Count   int64
	TotalNs int64
	SelfNs  int64
}

// recorder collects the spans of one goroutine. It is not safe for
// concurrent use: each client goroutine owns one and they are merged after
// the window.
type recorder struct {
	t0      time.Time
	spans   []span
	dropped int
	open    []openSpan
	layers  map[string]*layerTime
	op      int32
}

type openSpan struct {
	name    string
	start   time.Time
	index   int32 // in spans, -1 when dropped
	childNs int64
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, layers: make(map[string]*layerTime)}
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string, now time.Time) {
	index := int32(-1)
	if len(r.spans) < maxSpans {
		parent := int32(-1)
		if n := len(r.open); n > 0 {
			parent = r.open[n-1].index
		}
		index = int32(len(r.spans))
		r.spans = append(r.spans, span{Name: name, StartNs: now.Sub(r.t0).Nanoseconds(), Parent: parent, Op: r.op})
	} else {
		r.dropped++
	}
	r.open = append(r.open, openSpan{name: name, start: now, index: index})
}

// end closes the innermost open span.
func (r *recorder) end(now time.Time) {
	n := len(r.open) - 1
	o := r.open[n]
	r.open = r.open[:n]
	dur := now.Sub(o.start).Nanoseconds()
	if o.index >= 0 {
		r.spans[o.index].EndNs = now.Sub(r.t0).Nanoseconds()
	}
	lt := r.layers[o.name]
	if lt == nil {
		lt = &layerTime{}
		r.layers[o.name] = lt
	}
	lt.Count++
	lt.TotalNs += dur
	lt.SelfNs += dur - o.childNs
	if n > 0 {
		r.open[n-1].childNs += dur
	}
}

// leaf records a closed span [start, end) under the innermost open one.
func (r *recorder) leaf(name string, start, end time.Time) {
	r.begin(name, start)
	r.end(end)
}

// merge folds other's totals and spans into r (parents re-indexed).
func (r *recorder) merge(other *recorder) {
	base := int32(len(r.spans))
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
	r.dropped += other.dropped
	for name, lt := range other.layers {
		mine := r.layers[name]
		if mine == nil {
			mine = &layerTime{}
			r.layers[name] = mine
		}
		mine.Count += lt.Count
		mine.TotalNs += lt.TotalNs
		mine.SelfNs += lt.SelfNs
	}
}

// layer returns the totals of one span name (zero when it never occurred).
func (r *recorder) layer(name string) layerTime {
	if lt := r.layers[name]; lt != nil {
		return *lt
	}
	return layerTime{}
}

// layerNames lists the recorded span names in order.
func (r *recorder) layerNames() []string {
	names := make([]string, 0, len(r.layers))
	for name := range r.layers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeSpans writes every workload's spans to path as one JSON object.
func writeSpans(path string, byWorkload map[string]*recorder) error {
	type dump struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}
	out := make(map[string]dump, len(byWorkload))
	for name, r := range byWorkload {
		out[name] = dump{Dropped: r.dropped, Spans: r.spans}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
