package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the benchmark's own calls into a layer.
// Pass is the pass id (-1 inside set-up); Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one branch per boundary.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Pass: pass,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover, and the number of
// spans of that name. Spans a panic left open are skipped.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	count := make(map[string]int)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
		count[s.Name]++
	}
	return self, count
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	lo, hi := int64(0), int64(-1)
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// write stores the spans and the run's provenance as JSON at path.
func (t *tracer) write(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
