package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one timed interval at a layer boundary. Spans of one request
// share the request's span as parent; times are ns from a per-log origin.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
// One goroutine appends to a log; concurrent recorders each get their own.
type spanLog struct {
	origin string // what start_ns counts from
	spans  []span
	nextID uint64
}

func newSpanLog(origin string, idBase uint64) *spanLog {
	return &spanLog{origin: origin, nextID: idBase}
}

func (l *spanLog) add(parent uint64, name string, start, end int64) uint64 {
	l.nextID++
	l.spans = append(l.spans, span{ID: l.nextID, Parent: parent, Name: name, Start: start, End: end})
	return l.nextID
}

// selfTimes returns, per span name, the total self time in ns — each span's
// duration minus the part of it its children cover — and the span count.
func selfTimes(logs []*spanLog) (self map[string]int64, count map[string]int) {
	self, count = map[string]int64{}, map[string]int{}
	for _, l := range logs {
		children := map[uint64][]span{}
		for _, s := range l.spans {
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		for _, s := range l.spans {
			self[s.Name] += s.End - s.Start - covered(s, children[s.ID])
			count[s.Name]++
		}
	}
	return self, count
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes every span as one JSON object per line, each log
// preceded by a header line naming its time origin.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	for _, l := range logs {
		if err := enc.Encode(map[string]any{"log": l.origin, "spans": len(l.spans)}); err != nil {
			f.Close()
			return err
		}
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
