package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one run share the
// recorder's run id. A shadow span times a layer's public function on
// the inputs of a real call recorded earlier in the run (the benchmark
// adds no tracing inside the program); its parent is the span of the
// real call whose work it replays, so self time can subtract it.
type span struct {
	Run    string `json:"run"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's first dot-separated component.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps a run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced code paths call it unchanged.
type recorder struct {
	run   string
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span that started at wall-clock time start.
func (r *recorder) add(id, parent int64, name string, start, end time.Time, shadow bool) {
	if r == nil {
		return
	}
	s := span{Run: r.run, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Shadow: shadow}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn as one span and returns its duration; fn receives the
// span's id for its own children.
func (r *recorder) timed(name string, parent int64, shadow bool, fn func(id int64)) time.Duration {
	id := r.newID()
	start := time.Now()
	fn(id)
	end := time.Now()
	r.add(id, parent, name, start, end, shadow)
	return end.Sub(start)
}

// byName returns the durations of every span with the given name.
func (r *recorder) byName(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// dump writes the spans as JSON lines to dir/spans-<workload>-seed<n>.jsonl.
func (r *recorder) dump(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes sums, per layer, each span's duration minus the time its
// children cover, over the span trees rooted at the benchmark's own
// operation spans ("bench.*"). Spans outside those trees are reference
// work (verification, fresh-build comparisons) and are left out.
func (r *recorder) selfTimes() map[string]time.Duration {
	byID := make(map[int64]int, len(r.spans))
	childDur := make(map[int64]time.Duration)
	for i, s := range r.spans {
		byID[s.ID] = i
		if s.Parent != 0 {
			childDur[s.Parent] += s.dur()
		}
	}
	rooted := func(s span) bool {
		for s.Parent != 0 {
			i, ok := byID[s.Parent]
			if !ok {
				return false
			}
			s = r.spans[i]
		}
		return s.layer() == "bench"
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		if !rooted(s) {
			continue
		}
		self := s.dur() - childDur[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.layer()] += self
	}
	return out
}

// printSelfTimes writes the per-layer self-time table.
func (r *recorder) printSelfTimes(w io.Writer) {
	self := r.selfTimes()
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "per-layer self time over traced operations (%d spans, run %s):\n", len(r.spans), r.run)
	for _, l := range layers {
		fmt.Fprintf(w, "  self[%s] = %.3f ms (%.1f%%)\n", l, millis(self[l]), 100*frac(float64(self[l]), float64(total)))
	}
}
