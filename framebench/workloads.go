package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"approxcache"
	"approxcache/internal/feature"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/vision"
)

// system is one built and warmed instance of a workload.
type system struct {
	nodes   []*node
	clients []*p2p.Client
	// setupErr is a failed set-up check (store not filled, wire v2 not
	// negotiated); it fails every frame of the episode.
	setupErr error
	// base holds each node's per-source counts and frame count after
	// set-up, so the checks reconcile only the timed frames.
	base       []map[metrics.Source]int
	baseFrames []int
	// baseCounts holds the store and peer counters after set-up.
	baseCounts counters
}

// counters are cumulative system-wide counters read around the timed
// phase.
type counters struct {
	evictions, peerQueries, peerHits, skipped int
}

func (s *system) counters() counters {
	var c counters
	for _, n := range s.nodes {
		c.evictions += n.store.Evictions()
		q, h := n.stats.PeerQueries()
		c.peerQueries += q
		c.peerHits += h
	}
	for _, cl := range s.clients {
		c.skipped += cl.SkippedQueries()
	}
	return c
}

func (s *system) close() {
	for _, n := range s.nodes {
		n.close()
	}
}

// snapshotBase records the nodes' counters at the end of set-up.
func (s *system) snapshotBase() {
	for _, n := range s.nodes {
		s.base = append(s.base, n.stats.CountBySource())
		s.baseFrames = append(s.baseFrames, n.stats.Frames())
	}
	s.baseCounts = s.counters()
}

// workload is one benchmark scenario over pre-generated inputs.
type workload struct {
	name string
	// concurrent is set when several goroutines drive frames; the
	// frame order, and so the label/source sequence, is then not fixed.
	concurrent bool
	// frames is the number of frames one episode replays, in rounds
	// (see roundRange); each round's frames are staged before it runs.
	frames, rounds int
	// alikeRounds is set when every round draws from the same
	// distribution, so each round is a timing unit of its own; else
	// the episode is the unit.
	alikeRounds bool
	// steps lists every frame of the current episode in log order,
	// with the device or session that sends it.
	steps []step
	// stage holds the float64 images of one round's frames.
	stage stage
	// prepare, when set, sets up episode ep's steps before its set-up
	// is timed.
	prepare func(ep int)
	// build constructs and warms a system; it is timed as set-up.
	build func(asm assembly) (*system, error)
	// replay drives the staged frames of one round through sys, logging
	// each at its step index. tr is nil in untraced runs.
	replay func(sys *system, log *frameLog, tr *recorder, round int)
}

// step is one frame of a replay and the device (or session) it belongs
// to.
type step struct {
	device int
	frame  *frameIn
}

// roundRange returns the step indices [lo, hi) of round r.
func (w *workload) roundRange(r int) (lo, hi int) {
	return r * w.frames / w.rounds, (r + 1) * w.frames / w.rounds
}

// stageRound expands round r's frames into the stage. It is not timed.
func (w *workload) stageRound(r int) {
	lo, hi := w.roundRange(r)
	for i := lo; i < hi; i++ {
		w.steps[i].frame.expand(w.stage[i-lo])
	}
}

// newStage sizes w's stage for its largest round.
func (w *workload) newStage() {
	n := 0
	for r := 0; r < w.rounds; r++ {
		lo, hi := w.roundRange(r)
		n = max(n, hi-lo)
	}
	w.stage = newStage(n)
}

// roundsOf returns how many rounds of at most per frames cover n frames.
func roundsOf(n, per int) int { return (n + per - 1) / per }

// frameLog holds one episode's per-frame outcomes, preallocated so the
// timed loop allocates nothing of its own.
type frameLog struct {
	wall    []int64
	sim     []int64
	energy  []float64
	label   []string
	src     []metrics.Source
	failed  []bool
	correct []bool
}

func newFrameLog(n int) *frameLog {
	return &frameLog{
		wall:    make([]int64, n),
		sim:     make([]int64, n),
		energy:  make([]float64, n),
		label:   make([]string, n),
		src:     make([]metrics.Source, n),
		failed:  make([]bool, n),
		correct: make([]bool, n),
	}
}

func (l *frameLog) reset() {
	clear(l.wall)
	clear(l.sim)
	clear(l.energy)
	clear(l.label)
	clear(l.src)
	clear(l.failed)
	clear(l.correct)
}

// process runs frame f, staged as im, through p as frame i of the
// episode and logs the outcome. The wall time covers exactly the
// ProcessWithTruth call.
func (l *frameLog) process(i int, p processor, im *vision.Image, f *frameIn, tr *recorder) {
	var id int32
	if tr != nil {
		id = tr.beginFrame(i)
	}
	t0 := time.Now()
	res, err := p.ProcessWithTruth(im, f.imu, f.truth)
	l.wall[i] = int64(time.Since(t0))
	if tr != nil {
		tr.end(id, 0, 0, errFlag(err))
	}
	if err != nil {
		l.failed[i] = true
		return
	}
	l.sim[i] = int64(res.Latency)
	l.energy[i] = res.EnergyMJ
	l.label[i] = res.Label
	l.src[i] = res.Source
	l.correct[i] = res.Label == f.truth
}

// knownSource reports whether s is one of the pipeline's sources.
func knownSource(s metrics.Source) bool {
	for _, k := range metrics.Sources() {
		if s == k {
			return true
		}
	}
	return false
}

// check runs the per-frame output checks (no error, non-empty label,
// known source) and reconciles the engine's per-source counters with
// the logged results. It returns the failed-frame count, the FNV-1a
// hash of the label/source sequence, and a description of the first
// problem found.
func (l *frameLog) check(sys *system) (failed int, hash uint64, problem string) {
	hash = 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			hash ^= uint64(s[i])
			hash *= 1099511628211
		}
		hash ^= 0xff
		hash *= 1099511628211
	}
	counts := map[metrics.Source]int{}
	for i := range l.wall {
		if !l.failed[i] && (l.label[i] == "" || !knownSource(l.src[i])) {
			l.failed[i] = true
			if problem == "" {
				problem = fmt.Sprintf("frame %d: label %q source %q", i, l.label[i], l.src[i])
			}
		}
		if l.failed[i] {
			failed++
			mix("")
			continue
		}
		counts[l.src[i]]++
		mix(l.label[i])
		mix(string(l.src[i]))
	}
	ok := len(l.wall) - failed
	if sys.setupErr != nil {
		return len(l.wall), hash, sys.setupErr.Error()
	}
	engine := map[metrics.Source]int{}
	frames := 0
	for n, nd := range sys.nodes {
		got := nd.stats.CountBySource()
		sum := 0
		for s, c := range got {
			engine[s] += c - sys.base[n][s]
			sum += c
		}
		if sum != nd.stats.Frames() {
			return len(l.wall), hash, fmt.Sprintf("node %d: per-source counts sum to %d, frames %d", n, sum, nd.stats.Frames())
		}
		frames += nd.stats.Frames() - sys.baseFrames[n]
	}
	if frames != ok {
		return len(l.wall), hash, fmt.Sprintf("engine counted %d frames, %d succeeded", frames, ok)
	}
	for _, s := range metrics.Sources() {
		if engine[s] != counts[s] {
			return len(l.wall), hash, fmt.Sprintf("source %s: engine counted %d, results %d", s, engine[s], counts[s])
		}
	}
	return failed, hash, problem
}

// session returns the processor a step's device index names: a node
// of a multi-node system, or a session of a single multi-session node.
func (s *system) session(device int) processor {
	if len(s.nodes) > 1 {
		return s.nodes[device].sessions[0]
	}
	return s.nodes[0].sessions[device]
}

// serialReplay drives round r's steps in order from one goroutine.
func serialReplay(w *workload, sys *system, log *frameLog, tr *recorder, r int) {
	lo, hi := w.roundRange(r)
	for i := lo; i < hi; i++ {
		st := w.steps[i]
		log.process(i, sys.session(st.device), w.stage[i-lo], st.frame, tr)
	}
}

// deviceMix is the poster's scenario: one device, default options,
// replaying the four canonical scripts back to back.
func deviceMix(seed int64, in *deviceInputs, roundFrames int) *workload {
	w := &workload{name: "device-mix", frames: len(in.frames), rounds: roundsOf(len(in.frames), roundFrames)}
	for i := range in.frames {
		w.steps = append(w.steps, step{device: 0, frame: &in.frames[i]})
	}
	w.newStage()
	w.build = func(asm assembly) (*system, error) {
		clf, err := asm.classifier(in.classes, subSeed(seed, 20))
		if err != nil {
			return nil, err
		}
		n, err := asm.node(clf, 1, approxcache.Options{Clock: approxcache.NewVirtualClock()})
		if err != nil {
			return nil, err
		}
		return &system{nodes: []*node{n}}, nil
	}
	w.replay = func(sys *system, log *frameLog, tr *recorder, r int) { serialReplay(w, sys, log, tr, r) }
	return w
}

// churnRounds is how many separately timed rounds one serving-churn
// episode's frames are split into; the store stays full across them.
const churnRounds = 5

// servingChurn is one serving node with churnSessions sessions over one
// shared store of capacity entries, filled during set-up, serving
// independent client streams (IMU and video gates off). Each episode
// draws fresh streams.
func servingChurn(seed int64, in *churnInputs, capacity int) *workload {
	chunk := in.perSession / churnRounds
	w := &workload{name: "serving-churn", concurrent: true, frames: chunk * churnRounds * churnSessions, rounds: churnRounds, alikeRounds: true}
	// Log order is round-major: round r holds chunk frames of session 0,
	// then chunk frames of session 1, each in the session's own order.
	w.prepare = func(ep int) {
		streams := in.streams(ep)
		w.steps = w.steps[:0]
		for r := 0; r < churnRounds; r++ {
			for s, stream := range streams {
				for _, b := range stream[r*chunk : (r+1)*chunk] {
					w.steps = append(w.steps, step{device: s, frame: &in.bank[b]})
				}
			}
		}
	}
	w.prepare(0)
	w.newStage()
	w.build = func(asm assembly) (*system, error) {
		clf, err := asm.classifier(in.classes, subSeed(seed, 21))
		if err != nil {
			return nil, err
		}
		n, err := asm.node(clf, churnSessions, approxcache.Options{
			Clock:            approxcache.NewVirtualClock(),
			Capacity:         capacity,
			DisableIMUGate:   true,
			DisableVideoGate: true,
		})
		if err != nil {
			return nil, err
		}
		sys := &system{nodes: []*node{n}}
		im := vision.NewImage(frameSide, frameSide)
		for _, b := range in.fill {
			if n.store.Len() >= capacity {
				break
			}
			f := &in.bank[b]
			f.expand(im)
			if _, err := n.sessions[0].ProcessWithTruth(im, f.imu, f.truth); err != nil {
				n.close()
				return nil, fmt.Errorf("fill: %w", err)
			}
		}
		if got := n.store.Len(); got < capacity {
			sys.setupErr = fmt.Errorf("fill left the store at %d of %d entries", got, capacity)
		}
		return sys, nil
	}
	w.replay = func(sys *system, log *frameLog, tr *recorder, round int) {
		lo, _ := w.roundRange(round)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < churnSessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				p := sys.session(s)
				first := lo + s*chunk
				<-start
				for i := first; i < first+chunk; i++ {
					log.process(i, p, w.stage[i-lo], w.steps[i].frame, tr)
				}
			}(s)
		}
		close(start)
		wg.Wait()
	}
	return w
}

// pingAttempts bounds the set-up pings per peer pair; the simulated
// links lose about 1% of messages.
const pingAttempts = 8

// peerCrowd is crowdDevices devices on one simulated network, joined
// with ConnectAll and one successful Ping per peer pair (which
// negotiates wire v2), replayed in timestamp order by one goroutine.
func peerCrowd(seed int64, in *crowdInputs, roundFrames int) *workload {
	w := &workload{name: "peer-crowd", frames: len(in.order), rounds: roundsOf(len(in.order), roundFrames)}
	next := make([]int, len(in.devices))
	for _, d := range in.order {
		w.steps = append(w.steps, step{device: int(d), frame: &in.devices[d].frames[next[d]]})
		next[d]++
	}
	w.newStage()
	dim := feature.DefaultExtractor().Dim()
	w.build = func(asm assembly) (*system, error) {
		clock := approxcache.NewVirtualClock()
		net, err := approxcache.NewSimNetwork(subSeed(seed, 30))
		if err != nil {
			return nil, err
		}
		sys := &system{}
		clients := map[string]*approxcache.PeerClient{}
		names := make([]string, len(in.devices))
		for d, dev := range in.devices {
			clf, err := asm.classifier(dev.classes, subSeed(seed, uint64(40+d)))
			if err != nil {
				return nil, err
			}
			n, err := asm.node(clf, 1, approxcache.Options{Clock: clock})
			if err != nil {
				return nil, err
			}
			names[d] = fmt.Sprintf("device-%d", d)
			c, err := n.join(net, names[d])
			if err != nil {
				return nil, err
			}
			clients[names[d]] = c
			sys.nodes = append(sys.nodes, n)
			sys.clients = append(sys.clients, c)
		}
		if err := approxcache.ConnectAll(clients); err != nil {
			return nil, err
		}
		sort.Strings(names)
		for _, self := range names {
			c := clients[self]
			for _, peer := range c.Peers() {
				for a := 0; a < pingAttempts; a++ {
					if _, _, err := c.Ping(self, peer); err == nil {
						break
					}
				}
			}
			if c.QueryWireSize(dim) != p2p.QueryWireSizeV2(dim) && sys.setupErr == nil {
				sys.setupErr = fmt.Errorf("%s has not negotiated wire v2 with every peer", self)
			}
		}
		return sys, nil
	}
	w.replay = func(sys *system, log *frameLog, tr *recorder, r int) { serialReplay(w, sys, log, tr, r) }
	return w
}
