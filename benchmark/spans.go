package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program records into it). Op ties together the
// spans of one train step, request or window.
type span struct {
	Name   string
	Op     int64
	Parent int // index into the recorder's spans, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op returning -1.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its index.
func (r *recorder) add(name string, op int64, parent int, start time.Time, d time.Duration) int {
	if r == nil {
		return -1
	}
	s := start.Sub(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + d})
	return len(r.spans) - 1
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerRow is one line of the layer table.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover (overlapping
// children are counted once, and children are clipped to the parent).
func selfTimes(spans []span) []layerRow {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
		}
		dur := s.End - s.Start
		row.Count++
		row.Total += dur
		row.Self += dur - covered(s, spans, children[i])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the child intervals inside parent.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end time.Duration
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return sum
}

// writeChromeTrace writes the spans in Chrome trace_event format; the thread
// id is the op id modulo 64 so overlapping ops land on separate rows.
func writeChromeTrace(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%d}}`,
			s.Name, s.Op%64, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Op, s.Parent)
	}
	fmt.Fprintln(bw, `]}`)
	return bw.Flush()
}

// printLayerTable prints the self-time table of a traced run.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.2f %12.2f\n", r.Name, r.Count, ms(r.Total.Seconds()), ms(r.Self.Seconds()))
	}
}
