package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// span is one timed interval around a call into a layer, recorded by
// the benchmark's own code (the program carries no tracing of its
// own for this). Times are clock nanoseconds (see now).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Req    int64  `json:"req"`    // request or region id shared by a tree
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory, in a buffer preallocated so recording
// never allocates; spans beyond its capacity are counted and dropped.
// Safe for concurrent recorders.
type spanLog struct {
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

// add records a span and returns its id (-1 when dropped).
func (l *spanLog) add(parent int32, req int64, name string, start, end int64) int32 {
	if l == nil {
		return -1
	}
	end = max(end, start)
	i := l.n.Add(1) - 1
	if i >= int64(len(l.buf)) {
		l.dropped.Add(1)
		return -1
	}
	l.buf[i] = span{ID: int32(i), Parent: parent, Req: req, Name: name, Start: start, End: end}
	return int32(i)
}

// reserve claims an id for a parent span whose end is not known yet;
// fill completes it.
func (l *spanLog) reserve() int32 {
	if l == nil {
		return -1
	}
	i := l.n.Add(1) - 1
	if i >= int64(len(l.buf)) {
		l.dropped.Add(1)
		return -1
	}
	return int32(i)
}

func (l *spanLog) fill(id int32, parent int32, req int64, name string, start, end int64) {
	if l == nil || id < 0 {
		return
	}
	l.buf[id] = span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end}
}

// reset empties the log; quiescent callers only.
func (l *spanLog) reset() {
	clear(l.buf[:min(l.n.Load(), int64(len(l.buf)))])
	l.n.Store(0)
	l.dropped.Store(0)
}

func (l *spanLog) spans() []span { return l.buf[:min(l.n.Load(), int64(len(l.buf)))] }

// layerRow is one line of the self-time table: the spans of one name
// within trees rooted at one span name.
type layerRow struct {
	tree, name  string
	count       int
	total, self int64
	selfPerCall float64
	// share is the row's self time over its trees' root time.
	share float64
}

// selfTimes aggregates spans by (root name, name): a span's self time
// is its duration minus the part of its interval its children cover.
func selfTimes(spans []span) []layerRow {
	childCover := make([]int64, len(spans))
	rootName := func(s span) string {
		for s.Parent >= 0 {
			s = spans[s.Parent]
		}
		return s.Name
	}
	rootTotal := map[string]int64{}
	for _, s := range spans {
		if s.Name == "" {
			continue // reserved but never filled
		}
		if s.Parent < 0 {
			rootTotal[s.Name] += s.End - s.Start
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			childCover[s.Parent] += hi - lo
		}
	}
	type key struct{ tree, name string }
	rows := map[key]*layerRow{}
	for i, s := range spans {
		if s.Name == "" {
			continue
		}
		k := key{rootName(s), s.Name}
		r := rows[k]
		if r == nil {
			r = &layerRow{tree: k.tree, name: k.name}
			rows[k] = r
		}
		d := s.End - s.Start
		r.count++
		r.total += d
		r.self += max(0, d-childCover[i])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.selfPerCall = float64(r.self) / float64(r.count) / 1e3
		r.share = ratio(float64(r.self), float64(rootTotal[r.tree]))
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tree != out[j].tree {
			return out[i].tree < out[j].tree
		}
		return out[i].self > out[j].self
	})
	return out
}

// layerTable renders the self-time table.
func layerTable(rows []layerRow) []string {
	lines := []string{fmt.Sprintf("  %-9s %-9s %8s %11s %11s %12s %10s", "tree", "span", "count", "total_ms", "self_ms", "self_us/call", "self_share")}
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("  %-9s %-9s %8d %11.3f %11.3f %12.3f %10.4f",
			r.tree, r.name, r.count, float64(r.total)/1e6, float64(r.self)/1e6, r.selfPerCall, r.share))
	}
	return lines
}

// writeTrace writes the spans (JSON lines) and the layer table to dir,
// returning the span file's path.
func writeTrace(dir, stem string, spans []span, table []string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, stem+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if s.Name == "" {
			continue
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	tpath := filepath.Join(dir, stem+".layers.txt")
	return path, os.WriteFile(tpath, []byte(strings.Join(table, "\n")+"\n"), 0o644)
}
