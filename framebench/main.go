// Command framebench is the frame-pipeline benchmark of approxcache.
//
// It generates one of three seeded workloads up front, then replays it
// through the public approxcache API on a virtual clock for a fixed
// wall-clock budget, and prints every end-to-end metric by name, unit
// and sample count. With -trace 1 it instead builds the same pipeline
// from the internal constructors with every layer wrapped in a span
// recorder and prints the per-layer metrics. The last line of standard
// output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh, from the repository root:
//
//	bash framebench/run.sh --workload device-mix --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"approxcache/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "framebench:", err)
		os.Exit(1)
	}
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"device-mix", "serving-churn", "peer-crowd"}

// newWorkload generates the inputs of the named workload.
func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	switch name {
	case "device-mix":
		in, err := deviceMixInputs(seed, sz)
		if err != nil {
			return nil, err
		}
		return deviceMix(seed, in, sz.roundFrames), nil
	case "serving-churn":
		in, err := servingChurnInputs(seed, sz)
		if err != nil {
			return nil, err
		}
		return servingChurn(seed, in, sz.churnCapacity), nil
	case "peer-crowd":
		in, err := peerCrowdInputs(seed, sz)
		if err != nil {
			return nil, err
		}
		return peerCrowd(seed, in, sz.roundFrames), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spansDir receives the traced run's spans; empty skips writing.
	spansDir string
}

func parse(args []string) (options, error) {
	fs := flag.NewFlagSet("framebench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: device-mix, serving-churn or peer-crowd")
	fs.Int64Var(&o.seed, "seed", 1, "input generation seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	fs.StringVar(&o.spansDir, "spans", ".bench_out", "directory for the traced run's spans (empty: do not write)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, out io.Writer) error {
	o, err := parse(args)
	if err != nil {
		return err
	}
	w, err := newWorkload(o.workload, o.seed, fullSize)
	if err != nil {
		return err
	}
	var res result
	if o.trace {
		res, err = tracedRun(w, o)
	} else {
		res, err = endToEnd(w, o.seconds)
	}
	if err != nil {
		return err
	}
	return res.print(out, w.name, o.seed)
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	// samples is how many observations the value summarises.
	samples int
	note    string
}

// result is everything one run reports.
type result struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	// shape lines describe what the workload did (sources, store fill,
	// peer traffic); they are printed, not part of the JSON.
	shape []string
}

func (r result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// print writes the human-readable report and, as the last line, the
// JSON result.
func (r result) print(out io.Writer, name string, seed int64) error {
	fmt.Fprintf(out, "framebench %s seed %d: %d frames attempted, %d failed\n", name, seed, r.attempted, r.failed)
	for _, m := range r.metrics {
		fmt.Fprintf(out, "  %-32s %14.6g %-6s n=%-9d %s\n", m.name, m.value, m.unit, m.samples, m.note)
	}
	for _, s := range r.shape {
		fmt.Fprintf(out, "  %s\n", s)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		ms[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// endToEnd measures w through the facade for seconds and returns the
// end-to-end metrics.
func endToEnd(w *workload, seconds float64) (result, error) {
	rs, err := measure(w, func() assembly { return facade{} }, seconds, setupEpisodes, nil, nil, nil)
	if err != nil {
		return result{}, err
	}
	return result{
		attempted: rs.attempted,
		failed:    rs.failed,
		problems:  rs.problems,
		metrics:   endToEndMetrics(rs),
		shape:     shape(w, rs),
	}, nil
}

// endToEndMetrics derives the end-to-end metrics from a measurement.
// fail_rate is printed but left out of the JSON metrics: it is 0 on a
// healthy run, and the JSON carries it as failed/attempted.
func endToEndMetrics(rs *runStats) []metric {
	wall := sortedCopy(rs.wallUs)
	sim := sortedCopy(rs.simMs)
	frames := float64(rs.attempted)
	ok := len(rs.simMs)
	tailNote := func(sorted []float64) string {
		t, found := highestTail(sorted)
		if !found {
			return "fewer than 10 samples beyond the median"
		}
		return fmt.Sprintf("p99 has %d beyond; highest supported p%g = %.6g", beyond(len(sorted), 99), t.Pct, t.Value)
	}
	units := fmt.Sprintf("median of %d timing units", len(rs.unitFPS))
	return []metric{
		{"setup_s", "s", median(rs.setup), len(rs.setup), "median set-up (build + warm) time"},
		{"frames_per_s", "1/s", median(rs.unitFPS), rs.attempted,
			fmt.Sprintf("%s; %.6g over all %.3f s of timed replay", units, frames/rs.replayS, rs.replayS)},
		{"frame_wall_us_p50", "us", median(rs.unitP50), len(wall),
			fmt.Sprintf("ProcessWithTruth wall time, %s; %.6g over all frames", units, percentile(wall, 50))},
		{"frame_wall_us_p99", "us", median(rs.unitP99), len(wall),
			fmt.Sprintf("%s; %.6g over all frames, %s", units, percentile(wall, 99), tailNote(wall))},
		{"sim_latency_ms_mean", "ms", mean(rs.simMs), ok, "mean Result.Latency"},
		{"sim_latency_ms_p99", "ms", percentile(sim, 99), ok, tailNote(sim)},
		{"accuracy", "ratio", ratio(float64(rs.correct), float64(ok)), ok, "label equals ground truth"},
		{"energy_mj_per_frame", "mJ", ratio(rs.energy, float64(ok)), ok, "simulated energy"},
		{"alloc_bytes_per_frame", "B", float64(rs.allocB) / frames, rs.attempted, "heap bytes allocated in the timed phase"},
		{"allocs_per_frame", "count", float64(rs.allocN) / frames, rs.attempted, "heap objects allocated in the timed phase"},
		{"heap_live_mb", "MB", rs.heapLiveMB, 1, "live heap the system holds after the run"},
	}
}

// shape describes what the workload did, so its stated purpose can be
// checked against the run.
func shape(w *workload, rs *runStats) []string {
	ok := len(rs.simMs)
	var parts string
	for _, s := range metrics.Sources() {
		if c := rs.sources[s]; c > 0 {
			parts += fmt.Sprintf(" %s %.1f%%", s, 100*ratio(float64(c), float64(ok)))
		}
	}
	frames := float64(rs.attempted)
	return []string{
		fmt.Sprintf("%-32s %14.6g %-6s n=%-9d %s", "fail_rate", ratio(float64(rs.failed), frames), "ratio", rs.attempted, "failed / attempted"),
		fmt.Sprintf("episodes %d of %d frames; served by:%s", rs.episodes, w.frames, parts),
		fmt.Sprintf("store entries at end %d; evictions per frame %.4f; peer queries per frame %.4f (hits %.4f); digest-skipped queries %d",
			rs.storeLen, float64(rs.counts.evictions)/frames, float64(rs.counts.peerQueries)/frames,
			float64(rs.counts.peerHits)/frames, rs.counts.skipped),
		fmt.Sprintf("label/source sequence hash %016x", rs.hash),
	}
}

// spanCapacity bounds the traced run's in-memory spans.
const spanCapacity = 1 << 19

// tracedRun measures w untraced for half the budget (the reference for
// trace_overhead and the label/source sequence), then traced for the
// rest, and returns the per-layer metrics.
func tracedRun(w *workload, o options) (result, error) {
	plain, err := measure(w, func() assembly { return facade{} }, o.seconds/2, 1, nil, nil, nil)
	if err != nil {
		return result{}, err
	}
	tr := newRecorder(spanCapacity, w.concurrent)
	var candidates float64
	stop := func(ep int) bool {
		// Stop before an episode that would overflow the span buffer
		// (with a quarter to spare).
		per := tr.len() / max(ep, 1)
		return ep > 0 && tr.free() < per+per/4
	}
	inspect := func(sys *system) {
		n := 0.0
		for _, nd := range sys.nodes {
			candidates += nd.index.Stats().MeanCandidateSet
			n++
		}
		candidates /= n
	}
	traced, err := measure(w, func() assembly { return traced{r: tr} }, o.seconds/2, 1, stop, tr, inspect)
	if err != nil {
		return result{}, err
	}
	res := result{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		problems:  append(plain.problems, traced.problems...),
	}
	if n := tr.dropped.Load(); n > 0 {
		res.problems = append(res.problems, fmt.Sprintf("span buffer overflowed: %d spans dropped", n))
	}
	if !w.concurrent && traced.hash != plain.hash {
		res.problems = append(res.problems, fmt.Sprintf("traced label/source sequence %016x differs from untraced %016x", traced.hash, plain.hash))
		res.failed = plain.failed + traced.attempted
	}
	gates, err := replayGates(w.steps, traced.last.src)
	if err != nil {
		return result{}, err
	}
	spans := tr.recorded()
	res.metrics = layerMetrics(aggregate(spans, w.concurrent), traced, gates, candidates,
		median(traced.unitP50)/median(plain.unitP50))
	res.shape = shape(w, traced)
	if o.spansDir != "" {
		if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, o.seed))
		if err := writeSpans(path, spans[:tr.episodeEnds[0]]); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		res.shape = append(res.shape, fmt.Sprintf("spans of the first traced episode written to %s", path))
	}
	return res, nil
}
