package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans form a tree through Parent (0 is the
// root's parent); every span of one workload run carries the same Run ID.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	// Start and End are offsets from the recorder's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Count is the span's work count (records, cells, jobs), 0 if none.
	Count int64 `json:"count,omitempty"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps a run's spans in memory; it is safe for concurrent use.
type Recorder struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty span tree for one run.
func NewRecorder(run string) *Recorder { return &Recorder{run: run, t0: time.Now()} }

// Start opens a span under parent and returns its ID.
func (r *Recorder) Start(parent int, name string) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Name: name, Start: now, End: -1})
	return id
}

// End closes span id with its work count.
func (r *Recorder) End(id int, count int64) {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	r.spans[id-1].Count = count
}

// Do records fn as a span under parent and returns fn's error.
func (r *Recorder) Do(parent int, name string, fn func() (count int64, err error)) error {
	id := r.Start(parent, name)
	n, err := fn()
	r.End(id, n)
	return err
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Get returns span id.
func (r *Recorder) Get(id int) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// selfTimes derives each span's self time: its duration minus the part of
// its interval its children cover. Children that overlap one another (the
// per-program goroutines under a workload) are merged first, so parallel
// children never make a parent's self time negative.
func selfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name over the spans under root
// (root included).
func selfByName(spans []Span, root int) map[string]time.Duration {
	self := selfTimes(spans)
	in := subtree(spans, root)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if in[s.ID] {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

// subtree returns the IDs of root and all its descendants.
func subtree(spans []Span, root int) map[int]bool {
	in := map[int]bool{root: true}
	// Parents always precede children (IDs are assigned at Start).
	for _, s := range spans {
		if in[s.Parent] {
			in[s.ID] = true
		}
	}
	return in
}

// writeSpans writes the span tree to path as JSON.
func writeSpans(path string, spans []Span, host HostShape) error {
	buf, err := json.MarshalIndent(struct {
		Schema string    `json:"schema"`
		Host   HostShape `json:"host"`
		Spans  []Span    `json:"spans"`
	}{"perfbench-spans/v1", host, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
