package main

import (
	"sort"

	"backfi/internal/obs"
)

// rootSpan is the benchmark's own span around each client call; every
// other span of a frame comes from the client, the daemon and the
// decode pipeline, under the same trace id.
const rootSpan = "bench_rtt"

// spanDepth places every span name of one frame in its call tree. A
// span's children are the deeper spans of the same trace that overlap
// it, which is enough to attribute time without parent ids: the
// program's spans carry none, and names identify the stage.
var spanDepth = map[string]int{
	rootSpan:      0,
	"client_send": 1,
	// The daemon's connection and shard stages run inside the client's
	// exchange. conn_read starts when the daemon begins waiting for the
	// next request, before the client sends it; clipping every span to
	// the root interval keeps only the part the client waits for.
	"conn_read": 2, "queue_wait": 2, "batch": 2, "decode": 2, "resp_write": 2,
	"excitation_build": 3, "channel_sim": 3, "decode_total": 3,
	"sic_train": 4, "sic_cancel": 4, "channel_estimate": 4, "timing_search": 4, "mrc": 4, "viterbi": 4,
	"sic_analog_train": 5, "sic_digital_train": 5,
}

// leafDepth is the depth given to span names spanDepth does not know:
// they count as children of every known span they overlap.
const leafDepth = 6

type interval struct{ start, end int64 }

func (iv interval) len() int64 { return iv.end - iv.start }

func (iv interval) clip(to interval) interval {
	if iv.start < to.start {
		iv.start = to.start
	}
	if iv.end > to.end {
		iv.end = to.end
	}
	if iv.end < iv.start {
		iv.end = iv.start
	}
	return iv
}

// unionLen is the total length covered by ivs (sorted in place).
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := interval{start: -1 << 62, end: -1 << 62}
	for _, iv := range ivs {
		if iv.start > cur.end {
			total += cur.len()
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.len()
}

// stageTimes is time per span name, in nanoseconds.
type stageTimes map[string]int64

// frameTimes splits one trace's spans into per-name self time (a span
// minus the part of it deeper spans cover) and per-name total time.
// When the trace has a root span every span is clipped to it, so the
// frame's stages add up to the client-observed time.
func frameTimes(evs []obs.TraceEvent) (self, total stageTimes) {
	ivs := make([]interval, len(evs))
	depth := make([]int, len(evs))
	var root *interval
	for i, ev := range evs {
		ivs[i] = interval{ev.Start, ev.Start + ev.Dur}
		d, ok := spanDepth[ev.Name]
		if !ok {
			d = leafDepth
		}
		depth[i] = d
		if d == 0 && root == nil {
			root = &ivs[i]
		}
	}
	if root != nil {
		r := *root
		for i := range ivs {
			ivs[i] = ivs[i].clip(r)
		}
	}
	self, total = stageTimes{}, stageTimes{}
	var covered []interval
	for i, ev := range evs {
		covered = covered[:0]
		for j := range evs {
			if depth[j] > depth[i] {
				if c := ivs[j].clip(ivs[i]); c.len() > 0 {
					covered = append(covered, c)
				}
			}
		}
		total[ev.Name] += ivs[i].len()
		self[ev.Name] += ivs[i].len() - unionLen(covered)
	}
	return self, total
}

// traceReport sums frameTimes over the traces in ids (the timed frames)
// and counts how many of them carried a root span.
func traceReport(evs []obs.TraceEvent, ids map[uint64]bool) (self, total stageTimes, frames int) {
	byTrace := map[uint64][]obs.TraceEvent{}
	for _, ev := range evs {
		if ids[ev.Trace] {
			byTrace[ev.Trace] = append(byTrace[ev.Trace], ev)
		}
	}
	self, total = stageTimes{}, stageTimes{}
	for _, tev := range byTrace {
		s, t := frameTimes(tev)
		for k, v := range s {
			self[k] += v
		}
		for k, v := range t {
			total[k] += v
		}
		if t[rootSpan] > 0 {
			frames++
		}
	}
	return self, total, frames
}
