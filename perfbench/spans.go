package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request share Req; Parent is the ID of the span that caused this one
// (0 for a root span).
type span struct {
	ID, Parent, Req uint64
	Name            string
	Start, End      time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// valid and records nothing, so untraced runs pay one nil check per
// would-be span.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now returns the recorder's clock reading; the zero Duration for a nil
// recorder.
func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// add records a finished span and returns its ID (0 for a nil recorder).
func (r *recorder) add(name string, parent, req uint64, start, end time.Duration) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// reserve hands out a span ID before the span ends, so children can name
// their parent while it is still open; finish records it under that ID.
func (r *recorder) reserve() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id
}

func (r *recorder) finish(id uint64, name string, parent, req uint64, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// spanStat sums the spans of one name: how many, their total duration and
// their self time (duration minus the part covered by child spans).
type spanStat struct {
	Name       string
	Count      int
	Total, Own time.Duration
}

// summarize aggregates spans by name, ordered by self time, largest first.
func summarize(spans []span) []spanStat {
	childCover := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childCover[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanStat{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		own := d - childCover[s.ID]
		if own < 0 {
			own = 0
		}
		st.Own += own
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Own != out[j].Own {
			return out[i].Own > out[j].Own
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSpans writes one JSON object per span, in recording order.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Req, s.Name, int64(s.Start), int64(s.End))
	}
	return bw.Flush()
}
