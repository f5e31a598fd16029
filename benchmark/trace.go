package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// setup spans have req 0. Start and End are offsets from the tracer's
// origin.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Attr   string        `json:"attr,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, which is the untraced replay.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.origin)})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.origin)
}

// setAttr labels span id, e.g. "outcome=hit" or "shape=group-fold".
func (t *tracer) setAttr(id int64, attr string) {
	if t == nil {
		return
	}
	t.spans[id-1].Attr = attr
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// durationsUS collects the durations in µs of the spans named name whose
// attribute is attr ("" matches any).
func durationsUS(spans []span, name, attr string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

func spanSeconds(spans []span, name string) (float64, error) {
	for _, s := range spans {
		if s.Name == name {
			return s.dur().Seconds(), nil
		}
	}
	return 0, fmt.Errorf("no %s span", name)
}
