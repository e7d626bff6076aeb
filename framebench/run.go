package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"approxcache/internal/metrics"
)

// setupEpisodes is the fewest episodes an end-to-end measurement runs,
// so set-up time is always a median of several set-ups.
const setupEpisodes = 3

// runStats aggregates the episodes of one measurement.
type runStats struct {
	episodes  int
	attempted int
	failed    int
	problems  []string
	// hash is the label/source sequence hash of the first episode;
	// hashesAgree is false when a later episode differed.
	hash        uint64
	hashesAgree bool

	setup   []float64 // seconds per set-up
	replayS float64   // Σ wall seconds of the timed phases
	wallUs  []float64 // per-frame ProcessWithTruth wall time, µs
	simMs   []float64 // per-frame Result.Latency, ms
	// Per timing unit (an episode, or a round when rounds are alike):
	// frames per second and wall-time p50/p99 (µs). Wall-clock figures
	// are reported as medians over units, so a burst of outside load
	// in one unit does not move them.
	unitFPS, unitP50, unitP99 []float64
	energy                    float64
	correct                   int
	sources                   map[metrics.Source]int
	allocB                    uint64
	allocN                    uint64

	// heapLiveMB is the live heap the last episode's system held.
	heapLiveMB float64
	// storeLen is the store occupancy at the end of the last episode.
	storeLen int
	// counts sums the timed phases' store and peer counters.
	counts counters
	// last is the final episode's log, for per-frame follow-ups.
	last *frameLog
}

// measure runs episodes of w built by asm until seconds have elapsed
// (at least minEpisodes, unless stop, when non-nil, returns true before
// an episode). Each
// episode builds and warms a fresh system (timed as set-up), collects
// garbage, then replays every frame (the timed phase, bracketed by
// allocation counters). inspect, when non-nil, sees the last system
// before it is released.
func measure(w *workload, asm func() assembly, seconds float64, minEpisodes int, stop func(ep int) bool, tr *recorder, inspect func(*system)) (*runStats, error) {
	rs := &runStats{hashesAgree: true, sources: map[metrics.Source]int{}}
	log := newFrameLog(w.frames)
	durs := make([]float64, w.rounds)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var sys *system
	for ep := 0; ; ep++ {
		if ep >= minEpisodes && !time.Now().Before(deadline) {
			break
		}
		if stop != nil && stop(ep) {
			break
		}
		if sys != nil {
			sys.close()
			sys = nil
		}
		log.reset()
		if w.prepare != nil {
			w.prepare(ep)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := w.build(asm())
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		rs.setup = append(rs.setup, time.Since(t0).Seconds())
		sys = s
		sys.snapshotBase()
		runtime.GC()
		if tr != nil {
			tr.enabled.Store(true)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := range durs {
			w.stageRound(r)
			t1 := time.Now()
			w.replay(sys, log, tr, r)
			durs[r] = time.Since(t1).Seconds()
		}
		runtime.ReadMemStats(&m1)
		if tr != nil {
			tr.enabled.Store(false)
			tr.episodeEnds = append(tr.episodeEnds, tr.len())
		}
		// A timing unit is a round when rounds are alike, else the
		// whole episode.
		units := [][2]int{{0, w.frames}}
		unitDur := []float64{0}
		for r, d := range durs {
			rs.replayS += d
			unitDur[len(unitDur)-1] += d
			if w.alikeRounds {
				lo, hi := w.roundRange(r)
				units[len(units)-1] = [2]int{lo, hi}
				if r+1 < len(durs) {
					units, unitDur = append(units, [2]int{}), append(unitDur, 0)
				}
			}
		}
		for u, span := range units {
			lo, hi := span[0], span[1]
			rs.unitFPS = append(rs.unitFPS, float64(hi-lo)/unitDur[u])
			wall := make([]float64, hi-lo)
			for i := range wall {
				wall[i] = float64(log.wall[lo+i]) / 1e3
			}
			sort.Float64s(wall)
			rs.unitP50 = append(rs.unitP50, percentile(wall, 50))
			rs.unitP99 = append(rs.unitP99, percentile(wall, 99))
		}
		rs.allocB += m1.TotalAlloc - m0.TotalAlloc
		rs.allocN += m1.Mallocs - m0.Mallocs

		failed, hash, problem := log.check(sys)
		if problem != "" {
			rs.problems = append(rs.problems, fmt.Sprintf("episode %d: %s", ep, problem))
		}
		if ep == 0 {
			rs.hash = hash
		} else if hash != rs.hash && !w.concurrent {
			rs.hashesAgree = false
			rs.problems = append(rs.problems, fmt.Sprintf("episode %d: label/source sequence differs from episode 0", ep))
			failed = w.frames
		}
		rs.episodes++
		rs.attempted += w.frames
		rs.failed += failed
		for i := range log.wall {
			rs.wallUs = append(rs.wallUs, float64(log.wall[i])/1e3)
			if log.failed[i] {
				continue
			}
			rs.simMs = append(rs.simMs, float64(log.sim[i])/1e6)
			rs.energy += log.energy[i]
			rs.sources[log.src[i]]++
			if log.correct[i] {
				rs.correct++
			}
		}
		rs.storeLen = 0
		for _, n := range sys.nodes {
			rs.storeLen += n.store.Len()
		}
		c := sys.counters()
		rs.counts.evictions += c.evictions - sys.baseCounts.evictions
		rs.counts.peerQueries += c.peerQueries - sys.baseCounts.peerQueries
		rs.counts.peerHits += c.peerHits - sys.baseCounts.peerHits
		rs.counts.skipped += c.skipped - sys.baseCounts.skipped
	}
	rs.last = log
	if inspect != nil {
		inspect(sys)
	}
	// The system's live heap: a full collection with it alive, minus
	// one after releasing it. Inputs and the benchmark's bookkeeping
	// are live in both readings and cancel out.
	with := heapAfterGC()
	runtime.KeepAlive(sys)
	sys.close()
	sys = nil
	rs.heapLiveMB = (float64(with) - float64(heapAfterGC())) / (1 << 20)
	return rs, nil
}

// heapAfterGC returns the live heap after two collections (the second
// clears objects a sync.Pool kept alive through the first).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
