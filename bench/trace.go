package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pipefault/internal/core"
)

// span is one timed interval at a layer boundary. Spans of one core.Run, or
// of one kernel's layer probes, share a Run id; Parent is the id of the
// enclosing span (0 for a root).
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Run    int            `json:"run"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory for the traced run; they are written out
// when the run ends. Campaign spans come from the engine's callbacks, which
// arrive on the worker goroutine (trials) and the caller's goroutine
// (progress), hence the lock.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	run   int
	root  int       // open core.Run span
	last  time.Time // end of the latest core.trial span, or the core.Run start
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// open starts a span and returns its id. A zero parent opens a root span
// with a fresh run id.
func (r *recorder) open(name string, parent int, start time.Time, attrs map[string]any) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent == 0 {
		r.run++
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, Start: r.ns(start), Attrs: attrs})
	return len(r.spans)
}

func (r *recorder) close(id int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.ns(end)
}

// timed runs fn inside a span named name under parent.
func (r *recorder) timed(name string, parent int, fn func()) {
	id := r.open(name, parent, time.Now(), nil)
	fn()
	r.close(id, time.Now())
}

// beginRun opens the core.Run root span of one kernel's campaign.
func (r *recorder) beginRun(kernel string, start time.Time) {
	r.root = r.open("core.Run", 0, start, map[string]any{"kernel": kernel})
	r.last = start
}

func (r *recorder) endRun(end time.Time) { r.close(r.root, end) }

// trial closes one core.trial span: the interval since the previous trial
// resolved on the single worker (or since core.Run started). The first
// trial of each checkpoint therefore also carries that checkpoint's golden
// run and proof, and the campaign's first trial carries its set-up.
func (r *recorder) trial(now time.Time, kind core.ResolveKind, steps int) {
	id := r.open("core.trial", r.root, r.last, map[string]any{"kind": kind.String(), "steps": steps})
	r.close(id, now)
	r.last = now
}

// progress adds a zero-length core.progress event.
func (r *recorder) progress(now time.Time, p core.Progress) {
	id := r.open("core.progress", r.root, now, map[string]any{"trials_done": p.TrialsDone, "checkpoints_done": p.CheckpointsDone})
	r.close(id, now)
}

// durations returns the durations of every span named name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, r.spans[i].dur())
		}
	}
	return out
}

// nameStat is the per-name summary: how many spans, their total time, and
// their self time (total minus the time their children cover).
type nameStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// summary aggregates spans by name, in order of first appearance. Children
// of one span never overlap (each parent's children are recorded one after
// another, and progress events are instants), so a span's self time is its
// duration minus the sum of its children's.
func (r *recorder) summary() []nameStat {
	child := make([]time.Duration, len(r.spans)+1)
	for i := range r.spans {
		child[r.spans[i].Parent] += r.spans[i].dur()
	}
	idx := map[string]int{}
	var out []nameStat
	for i := range r.spans {
		s := &r.spans[i]
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, nameStat{Name: s.Name})
		}
		out[k].Count++
		out[k].Total += s.dur()
		out[k].Self += s.dur() - child[s.ID]
	}
	return out
}

func (r *recorder) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%-26s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, s := range r.summary() {
		fmt.Fprintf(w, "%-26s %8d %12.4f %12.4f\n", s.Name, s.Count, s.Total.Seconds(), s.Self.Seconds())
	}
}

// write saves the spans as JSON.
func (r *recorder) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	raw, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: r.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// spanFile is the layout of the -spans output.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// percentile returns the nearest-rank q-quantile of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}
