package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// kind names what a span measured: the frame itself or one public call
// into a layer.
type kind uint8

// Span kinds. The store methods appear twice: once for the device's own
// engine (cachestore.*) and once for the peer service answering other
// devices from the same store (peerstore.*), so the p2p layer's self
// time can exclude the remote lookup.
const (
	kFrame kind = iota
	kInfer
	kExtract
	kStoreInsert
	kStoreGet
	kStoreTouch
	kStoreLabel
	kStoreNearest
	kStoreRemove
	kPeerInsert
	kPeerGet
	kPeerTouch
	kPeerLabel
	kPeerNearest
	kPeerRemove
	kLSHInsert
	kLSHRemove
	kLSHNearest
	kCall
	kSend
	numKinds
)

var kindNames = [numKinds]string{
	kFrame:        "core.frame",
	kInfer:        "dnn.infer",
	kExtract:      "feature.extract",
	kStoreInsert:  "cachestore.insert",
	kStoreGet:     "cachestore.get",
	kStoreTouch:   "cachestore.touch",
	kStoreLabel:   "cachestore.label",
	kStoreNearest: "cachestore.nearest",
	kStoreRemove:  "cachestore.remove",
	kPeerInsert:   "peerstore.insert",
	kPeerGet:      "peerstore.get",
	kPeerTouch:    "peerstore.touch",
	kPeerLabel:    "peerstore.label",
	kPeerNearest:  "peerstore.nearest",
	kPeerRemove:   "peerstore.remove",
	kLSHInsert:    "lsh.insert",
	kLSHRemove:    "lsh.remove",
	kLSHNearest:   "lsh.nearest",
	kCall:         "p2p.call",
	kSend:         "p2p.send",
}

func (k kind) String() string { return kindNames[k] }

// layer returns the layer a kind belongs to (the name before the dot).
func (k kind) layer() string {
	name := kindNames[k]
	return name[:strings.IndexByte(name, '.')]
}

// Span flags.
const (
	// flagErr marks a call that returned an error.
	flagErr uint8 = 1 << iota
	// flagLost marks a transport exchange the simulated network lost.
	flagLost
	// flagUnderRemove marks an index removal made while a store Remove
	// was in flight (rather than by an eviction inside Insert).
	flagUnderRemove
)

// span is one timed interval. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	start, end int64
	// val carries a simulated duration in nanoseconds: the inference
	// latency of dnn.infer, the round trip of p2p.call and p2p.send.
	val int64
	// parent is the index of the enclosing span; -1 for a root or when
	// the recorder runs concurrently and cannot tell.
	parent int32
	// frame is the frame index within its episode; -1 when unknown.
	frame int32
	// bytes is the payload a p2p span put on the wire.
	bytes int32
	kind  kind
	flags uint8
}

// recorder keeps spans in a preallocated in-memory buffer. In serial
// mode (one goroutine drives all frames) it tracks the open spans on a
// stack, so every span knows its parent and frame. In concurrent mode
// it records intervals only; self times then come from totals.
//
// In serial mode the only other goroutine that records is the engine's
// classifier watchdog, which runs a call while the driving goroutine
// blocks on it, so the stack is never touched concurrently.
type recorder struct {
	epoch      time.Time
	concurrent bool
	// enabled gates recording to the timed phases: set-up calls (store
	// fill, pings) are not spans.
	enabled atomic.Bool
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	stack   []int32
	frame   int32
	// episodeEnds holds the span count at the end of each episode.
	episodeEnds []int
}

func newRecorder(capacity int, concurrent bool) *recorder {
	return &recorder{
		epoch:      time.Now(),
		concurrent: concurrent,
		spans:      make([]span, capacity),
		stack:      make([]int32, 0, 16),
		frame:      -1,
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// len returns how many spans are recorded.
func (r *recorder) len() int {
	n := int(r.n.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return n
}

// free returns how many more spans fit.
func (r *recorder) free() int { return len(r.spans) - r.len() }

// recorded returns the recorded spans.
func (r *recorder) recorded() []span { return r.spans[:r.len()] }

// begin opens a span and returns its index (-1 when recording is off
// or the buffer is full: the call is then not recorded).
func (r *recorder) begin(k kind) int32 {
	if !r.enabled.Load() {
		return -1
	}
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	s := &r.spans[i]
	*s = span{kind: k, parent: -1, frame: -1}
	if !r.concurrent {
		if d := len(r.stack); d > 0 {
			s.parent = r.stack[d-1]
		}
		s.frame = r.frame
		r.stack = append(r.stack, int32(i))
	}
	s.start = r.now()
	return int32(i)
}

// end closes span i, attaching its simulated duration, wire bytes and
// flags.
func (r *recorder) end(i int32, val int64, bytes int, flags uint8) {
	t := r.now()
	if i < 0 {
		return
	}
	s := &r.spans[i]
	s.end, s.val, s.bytes, s.flags = t, val, int32(bytes), flags
	if !r.concurrent {
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// beginFrame opens the span of frame f.
func (r *recorder) beginFrame(f int) int32 {
	if !r.concurrent {
		r.frame = int32(f)
	}
	i := r.begin(kFrame)
	if i >= 0 {
		r.spans[i].frame = int32(f)
	}
	return i
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children must follow their
// parent (the recorder appends spans in start order), and siblings must
// appear in start order.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	// covered[p] is the end of the union of p's children seen so far.
	covered := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		covered[i] = s.start
		p := s.parent
		if p < 0 {
			continue
		}
		ps := spans[p]
		lo, hi := max(s.start, covered[p], ps.start), min(s.end, ps.end)
		if hi > lo {
			self[p] -= hi - lo
		}
		covered[p] = max(covered[p], hi)
	}
	return self
}

// topLevel reports whether the engine calls kind k directly while
// processing a frame (as opposed to a call nested in another layer).
func topLevel(k kind) bool {
	switch k.layer() {
	case "dnn", "feature", "cachestore", "p2p":
		return true
	}
	return false
}

// kindStats aggregates every span of one kind.
type kindStats struct {
	count int
	total int64 // Σ duration
	self  int64 // Σ self time
	val   int64 // Σ simulated duration
	bytes int64
	lost  int
	durs  []float64 // per-call duration, µs
}

// aggregate sums spans per kind. In serial mode self time is exact per
// span (selfTimes); in concurrent mode it is computed from totals:
// a kind's summed duration minus the summed duration of the calls that
// ran inside it. That is exact for the concurrent workload, whose
// pipeline has no peer layer; index removals are split between store
// inserts (evictions) and store removes by flagUnderRemove.
func aggregate(spans []span, concurrent bool) [numKinds]kindStats {
	var st [numKinds]kindStats
	var self []int64
	if !concurrent {
		self = selfTimes(spans)
	}
	for i, s := range spans {
		k := &st[s.kind]
		d := s.end - s.start
		k.count++
		k.total += d
		k.val += s.val
		k.bytes += int64(s.bytes)
		if s.flags&flagLost != 0 {
			k.lost++
		}
		k.durs = append(k.durs, float64(d)/1e3)
		if self != nil {
			k.self += self[i]
		}
	}
	if concurrent {
		for k := range st {
			st[k].self = st[k].total
		}
		var underRemove int64
		for _, s := range spans {
			if s.kind == kLSHRemove && s.flags&flagUnderRemove != 0 {
				underRemove += s.end - s.start
			}
		}
		st[kStoreNearest].self -= st[kLSHNearest].total
		st[kStoreInsert].self -= st[kLSHInsert].total + st[kLSHRemove].total - underRemove
		st[kStoreRemove].self -= underRemove
		for k := kind(0); k < numKinds; k++ {
			if topLevel(k) {
				st[kFrame].self -= st[k].total
			}
		}
	}
	return st
}

// writeSpans writes spans as tab-separated lines (index, parent, frame,
// name, start_ns, end_ns, sim_ns, bytes, flags).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "index\tparent\tframe\tname\tstart_ns\tend_ns\tsim_ns\tbytes\tflags")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
			i, s.parent, s.frame, s.kind, s.start, s.end, s.val, s.bytes, s.flags)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
