package main

import (
	"approxcache/internal/metrics"
)

// layerMetrics derives the per-layer metrics of a traced run from its
// aggregated spans (st), its frame outcomes and counters (rs), the
// replayed gate timings, the index's mean candidate set and the tracing
// overhead. Per-call times are medians of inclusive call durations
// unless the name says p99 or self; self times are means per call (per
// frame for core), exact per span in the serial workloads and from
// totals in serving-churn (see aggregate). Peer-side store calls
// (peerstore.*) count toward p2p, not cachestore; lsh counts index
// calls from both.
func layerMetrics(st [numKinds]kindStats, rs *runStats, g gateStats, candidates, overhead float64) []metric {
	frames := st[kFrame].count
	perFrame := func(n int) float64 { return ratio(float64(n), float64(frames)) }
	med := func(k kind) (float64, int) { return median(st[k].durs), st[k].count }
	pct := func(k kind, p float64) float64 { return percentile(sortedCopy(st[k].durs), p) }
	selfMean := func(k kind) float64 { return ratio(float64(st[k].self)/1e3, float64(st[k].count)) }
	var ms []metric
	add := func(name, unit string, v float64, n int, note string) {
		ms = append(ms, metric{name: name, unit: unit, value: v, samples: n, note: note})
	}
	callUs := func(name string, k kind, note string) {
		v, n := med(k)
		add(name, "us", v, n, note)
	}

	ok := len(rs.simMs)
	add("core.self_us", "us", ratio(float64(st[kFrame].self)/1e3, float64(frames)), frames,
		"frame time outside every wrapped layer, mean per frame")
	var reuse int
	for _, s := range metrics.Sources() {
		c := rs.sources[s]
		add("core.share."+string(s), "ratio", ratio(float64(c), float64(ok)), ok, "frames served by "+string(s))
	}
	for _, s := range metrics.ReuseSources() {
		reuse += rs.sources[s]
	}
	add("core.reuse_ratio", "ratio", ratio(float64(reuse), float64(ok)), ok, "frames served without the DNN or the ladder")

	add("vision.check_us", "us", median(g.check), len(g.check), "vision.CheckFrame, replayed")
	add("imu.gate_us", "us", median(g.imuGate), len(g.imuGate), "imu.CheckWindow + ObserveAll + AllowReuse, replayed")
	add("video.match_us", "us", median(g.match), len(g.match), "KeyframeLibrary.Match, replayed")
	add("video.push_us", "us", median(g.push), len(g.push), "KeyframeLibrary.Push, replayed")
	add("video.push_bytes", "B", g.pushBytes, len(g.push), "heap bytes per KeyframeLibrary.Push")

	callUs("feature.extract_us", kExtract, "")
	add("feature.calls_per_frame", "count", perFrame(st[kExtract].count), frames, "")

	lshCalls := st[kLSHNearest].count + st[kLSHInsert].count + st[kLSHRemove].count
	add("lsh.nearest_us_p50", "us", pct(kLSHNearest, 50), st[kLSHNearest].count, "")
	add("lsh.nearest_us_p99", "us", pct(kLSHNearest, 99), st[kLSHNearest].count, "")
	callUs("lsh.insert_us", kLSHInsert, "")
	callUs("lsh.remove_us", kLSHRemove, "")
	add("lsh.calls_per_frame", "count", perFrame(lshCalls), frames, "local and peer-side lookups")
	add("lsh.mean_candidate_set", "count", candidates, 1, "lsh.Stats estimate at the end of the run")

	inserts := st[kStoreInsert].count + st[kPeerInsert].count
	add("cachestore.insert_self_us", "us", selfMean(kStoreInsert), st[kStoreInsert].count, "insert minus its lsh calls, mean")
	add("cachestore.insert_us_p50", "us", pct(kStoreInsert, 50), st[kStoreInsert].count, "inclusive")
	add("cachestore.insert_us_p99", "us", pct(kStoreInsert, 99), st[kStoreInsert].count, "inclusive")
	add("cachestore.evictions_per_insert", "ratio", ratio(float64(rs.counts.evictions), float64(inserts)), inserts, "local and gossip inserts")
	add("cachestore.nearest_self_us", "us", selfMean(kStoreNearest), st[kStoreNearest].count, "lookup minus its lsh call, mean")
	callUs("cachestore.touch_us", kStoreTouch, "")
	callUs("cachestore.label_us", kStoreLabel, "")
	add("cachestore.label_calls_per_frame", "count", perFrame(st[kStoreLabel].count), frames, "")
	callUs("cachestore.get_us", kStoreGet, "")
	callUs("cachestore.remove_us", kStoreRemove, "")

	add("dnn.calls_per_frame", "count", perFrame(st[kInfer].count), frames, "")
	callUs("dnn.infer_us", kInfer, "wall time of the simulated classifier")
	add("dnn.sim_ms_per_call", "ms", ratio(float64(st[kInfer].val)/1e6, float64(st[kInfer].count)), st[kInfer].count, "simulated inference latency, mean")

	calls, sends := st[kCall].count, st[kSend].count
	add("p2p.query_calls_per_frame", "count", perFrame(calls), frames, "transport round trips")
	callUs("p2p.call_us", kCall, "inclusive of the remote lookup")
	add("p2p.self_us", "us", selfMean(kCall), calls, "round trip minus peer-side store calls, mean")
	add("p2p.send_per_frame", "count", perFrame(sends), frames, "one-way gossip sends")
	add("p2p.bytes_per_frame", "B", perFrame(int(st[kCall].bytes+st[kSend].bytes)), frames, "request and gossip bytes sent")
	add("p2p.peer_hit_ratio", "ratio", ratio(float64(rs.counts.peerHits), float64(rs.counts.peerQueries)), rs.counts.peerQueries, "peer hits / peer queries")
	add("p2p.sim_rtt_ms", "ms", ratio(float64(st[kCall].val)/1e6, float64(calls)), calls, "simulated round trip, mean")
	add("p2p.skipped_queries", "count", float64(rs.counts.skipped), rs.episodes, "per-peer queries digests avoided")

	add("simnet.loss_ratio", "ratio", ratio(float64(st[kCall].lost+st[kSend].lost), float64(calls+sends)), calls+sends, "lost / attempted exchanges")
	add("trace_overhead", "ratio", overhead, frames, "traced / untraced frame_wall_us_p50")
	return ms
}
