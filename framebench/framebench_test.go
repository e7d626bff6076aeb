package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"approxcache/internal/trace"
	"approxcache/internal/vision"
)

func TestIMUWindowsMatchTrace(t *testing.T) {
	w, err := trace.Generate(trace.HandheldMix(90, 7))
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]time.Duration, len(w.Frames))
	for i, f := range w.Frames {
		offsets[i] = f.Offset
	}
	wins := imuWindows(w.IMU, offsets)
	var prev time.Duration
	samples := 0
	for i, f := range w.Frames {
		want := w.IMUWindow(prev, f.Offset)
		if !reflect.DeepEqual(wins[i], want) {
			t.Fatalf("frame %d: cursor window has %d samples, IMUWindow %d", i, len(wins[i]), len(want))
		}
		samples += len(want)
		prev = f.Offset
	}
	if samples == 0 {
		t.Fatal("no IMU samples in any window")
	}
}

func TestHighestTail(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		pct    float64
		beyond int
	}{
		{n: 9, ok: false},
		{n: 20, ok: true, pct: 50, beyond: 10},
		{n: 100, ok: true, pct: 90, beyond: 10},
		{n: 999, ok: true, pct: 90, beyond: 99},
		{n: 1000, ok: true, pct: 99, beyond: 10},
		{n: 100000, ok: true, pct: 99.99, beyond: 10},
	} {
		got, ok := highestTail(sorted(tc.n))
		if ok != tc.ok || got.Pct != tc.pct || got.Beyond != tc.beyond {
			t.Errorf("n=%d: got %+v ok=%v, want p%g with %d beyond ok=%v", tc.n, got, ok, tc.pct, tc.beyond, tc.ok)
		}
		if ok && got.Value != percentile(sorted(tc.n), tc.pct) {
			t.Errorf("n=%d: value %v is not the p%g", tc.n, got.Value, tc.pct)
		}
	}
	if got := percentile(sorted(1000), 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestSelfTimesNestedTree(t *testing.T) {
	// frame [0,100] holds A [10,40] (which holds A1 [20,30]), then two
	// overlapping children B [50,70] and C [60,80], then D [90,120]
	// which runs past the frame's end.
	spans := []span{
		{start: 0, end: 100, parent: -1, kind: kFrame},
		{start: 10, end: 40, parent: 0, kind: kStoreNearest},
		{start: 20, end: 30, parent: 1, kind: kLSHNearest},
		{start: 50, end: 70, parent: 0, kind: kExtract},
		{start: 60, end: 80, parent: 0, kind: kInfer},
		{start: 90, end: 120, parent: 0, kind: kCall},
	}
	got := selfTimes(spans)
	// Children cover [10,40] ∪ [50,80] ∪ [90,100] = 70 of the frame.
	want := []int64{30, 20, 10, 20, 20, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	st := aggregate(spans, false)
	if st[kFrame].self != 30 || st[kStoreNearest].self != 20 || st[kLSHNearest].count != 1 {
		t.Fatalf("aggregate: frame self %d, nearest self %d, lsh count %d", st[kFrame].self, st[kStoreNearest].self, st[kLSHNearest].count)
	}
}

func TestAggregateTotals(t *testing.T) {
	// Two concurrent frames; parents unknown. An insert containing an
	// eviction and an index insert, a store remove containing its index
	// removal, a lookup containing its index lookup.
	spans := []span{
		{start: 0, end: 100, parent: -1, kind: kFrame},
		{start: 5, end: 95, parent: -1, kind: kFrame},
		{start: 10, end: 60, parent: -1, kind: kStoreInsert},
		{start: 20, end: 25, parent: -1, kind: kLSHRemove},
		{start: 30, end: 40, parent: -1, kind: kLSHInsert},
		{start: 12, end: 32, parent: -1, kind: kStoreRemove},
		{start: 14, end: 18, parent: -1, kind: kLSHRemove, flags: flagUnderRemove},
		{start: 40, end: 50, parent: -1, kind: kStoreNearest},
		{start: 41, end: 49, parent: -1, kind: kLSHNearest},
	}
	st := aggregate(spans, true)
	if got := st[kStoreInsert].self; got != 50-5-10 {
		t.Errorf("insert self %d, want 35", got)
	}
	if got := st[kStoreRemove].self; got != 20-4 {
		t.Errorf("remove self %d, want 16", got)
	}
	if got := st[kStoreNearest].self; got != 2 {
		t.Errorf("nearest self %d, want 2", got)
	}
	if got := st[kFrame].self; got != 190-50-20-10 {
		t.Errorf("frame self %d, want 110", got)
	}
}

// smokeWorkloads builds every workload at smoke size.
func smokeWorkloads(t *testing.T) []*workload {
	t.Helper()
	var ws []*workload
	for _, name := range workloadNames {
		w, err := newWorkload(name, 5, smokeSize)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestTracedEqualsFacade replays every workload's frames, in one fixed
// order, through the facade and through the wrapped assembly in
// lockstep and requires identical results.
func TestTracedEqualsFacade(t *testing.T) {
	for _, w := range smokeWorkloads(t) {
		tr := newRecorder(1<<16, false)
		tr.enabled.Store(true)
		plain, err := w.build(facade{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		wrapped, err := w.build(traced{r: tr})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		im := vision.NewImage(frameSide, frameSide)
		for i, st := range w.steps {
			f := st.frame
			f.expand(im)
			want, werr := plain.session(st.device).ProcessWithTruth(im, f.imu, f.truth)
			got, gerr := wrapped.session(st.device).ProcessWithTruth(im, f.imu, f.truth)
			if (werr != nil) != (gerr != nil) || got != want {
				t.Fatalf("%s frame %d: traced %+v (%v), facade %+v (%v)", w.name, i, got, gerr, want, werr)
			}
		}
		if tr.len() == 0 {
			t.Fatalf("%s: no spans recorded", w.name)
		}
		plain.close()
		wrapped.close()
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type jsonResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// lastLine parses the JSON result a run printed last.
func lastLine(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return r
}

// checkMetrics requires exactly the metrics of want, with their units.
func checkMetrics(t *testing.T, name string, r jsonResult, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", name, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s", name, m.Name, got, ok, m.Unit)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range smokeWorkloads(t) {
		res, err := endToEnd(w, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var out bytes.Buffer
		if err := res.print(&out, w.name, 5); err != nil {
			t.Fatal(err)
		}
		r := lastLine(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted != setupEpisodes*w.frames {
			t.Fatalf("%s: %+v\n%s", w.name, r, out.String())
		}
		checkMetrics(t, w.name, r, spec.EndToEnd)
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range smokeWorkloads(t) {
		res, err := tracedRun(w, options{seconds: 0.01, seed: 5, spansDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var out bytes.Buffer
		if err := res.print(&out, w.name, 5); err != nil {
			t.Fatal(err)
		}
		r := lastLine(t, out.String())
		if !r.Correct || r.Failed != 0 {
			t.Fatalf("%s: %+v\n%s", w.name, r, out.String())
		}
		checkMetrics(t, w.name, r, spec.PerLayer)
		if r.Metrics["feature.calls_per_frame"].Value <= 0 || r.Metrics["trace_overhead"].Value <= 0 {
			t.Errorf("%s: per-layer metrics empty\n%s", w.name, out.String())
		}
	}
}

// TestSequenceRepeats checks that the serial workloads replay to the
// same label/source sequence in separate runs.
func TestSequenceRepeats(t *testing.T) {
	for _, w := range smokeWorkloads(t) {
		if w.concurrent {
			continue
		}
		a, err := measure(w, func() assembly { return facade{} }, 0, 1, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(w, func() assembly { return facade{} }, 0, 2, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash || !b.hashesAgree {
			t.Errorf("%s: sequence hash %016x then %016x (episodes agree %v)", w.name, a.hash, b.hash, b.hashesAgree)
		}
	}
}
