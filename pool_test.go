package approxcache_test

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"approxcache"
	"approxcache/internal/testutil"
)

// stubClassifier implements Classifier but not BatchClassifier, to
// exercise the BatchSize capability check.
type stubClassifier struct{ approxcache.Classifier }

func newPool(t *testing.T, sessions int, w *approxcache.Workload, opts approxcache.Options) *approxcache.Pool {
	t.Helper()
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Clock == nil {
		opts.Clock = approxcache.NewVirtualClock()
	}
	p, err := approxcache.NewPool(sessions, clf, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := approxcache.NewPool(2, nil, approxcache.Options{}); err == nil {
		t.Fatal("nil classifier accepted")
	}
	w := testWorkload(t, 10)
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := approxcache.NewPool(0, clf, approxcache.Options{}); err == nil {
		t.Fatal("pool of 0 sessions accepted")
	}
	// BatchSize requires batch-capable inference.
	if _, err := approxcache.NewPool(2, stubClassifier{clf}, approxcache.Options{BatchSize: 4}); err == nil {
		t.Fatal("BatchSize accepted for a classifier without InferBatch")
	}
}

// TestPoolConcurrentSessions drives the full serving-scale facade —
// one shared store, micro-batcher, N concurrent streams — under -race.
func TestPoolConcurrentSessions(t *testing.T) {
	const sessions = 4
	w := testWorkload(t, 40)
	p := newPool(t, sessions, w, approxcache.Options{
		BatchSize: 4,
		BatchWait: time.Millisecond,
	})
	if p.Size() != sessions || len(p.Sessions()) != sessions {
		t.Fatalf("size = %d, want %d", p.Size(), sessions)
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := p.Session(s)
			prev := time.Duration(0)
			for _, fr := range w.Frames {
				win := w.IMUWindow(prev, fr.Offset)
				prev = fr.Offset
				if _, err := c.ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if got := p.Stats().Frames(); got != sessions*len(w.Frames) {
		t.Fatalf("shared scoreboard saw %d frames, want %d", got, sessions*len(w.Frames))
	}
	if p.Len() == 0 {
		t.Fatal("shared store is empty")
	}
	for s := 0; s < sessions; s++ {
		if got := p.Session(s).Len(); got != p.Len() {
			t.Fatalf("session %d sees %d entries, pool %d", s, got, p.Len())
		}
	}
	bs, ok := p.BatcherStats()
	if !ok || bs.Frames == 0 {
		t.Fatalf("batcher stats = %+v ok=%v", bs, ok)
	}
	// Every session's stats handle is the shared scoreboard.
	for s := 0; s < sessions; s++ {
		if p.Session(s).Stats() != p.Stats() {
			t.Fatalf("session %d has a private scoreboard", s)
		}
	}
}

// TestPoolUnshardedUnbatched: the zero-valued serving options still
// yield a working pool (one store, no batcher).
func TestPoolUnshardedUnbatched(t *testing.T) {
	w := testWorkload(t, 10)
	p := newPool(t, 2, w, approxcache.Options{})
	replay(t, p.Session(0), w)
	if _, ok := p.BatcherStats(); ok {
		t.Fatal("unbatched pool reported batcher stats")
	}
	if p.Len() == 0 {
		t.Fatal("store empty after replay")
	}
}

// TestPoolShutdownRace drives sessions mid-Process against a
// concurrent snapshot save and the pool shutdown, under -race. A
// Process that loses the race must either succeed (ladder absorbed the
// refusal) or fail with the typed ErrBatcherClosed — never panic or
// return an untyped error — and the batcher goroutine must not leak.
func TestPoolShutdownRace(t *testing.T) {
	const sessions = 4
	w := testWorkload(t, 30)
	checkLeak := testutil.LeakGuard(t, 2)
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := approxcache.NewPool(sessions, clf, approxcache.Options{
		BatchSize: 4,
		BatchWait: time.Millisecond,
		Clock:     approxcache.NewVirtualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := p.Session(s)
			for round := 0; round < 3; round++ {
				prev := time.Duration(0)
				for _, fr := range w.Frames {
					win := w.IMUWindow(prev, fr.Offset)
					prev = fr.Offset
					_, err := c.Process(fr.Image, win)
					if err != nil && !errors.Is(err, approxcache.ErrBatcherClosed) {
						t.Errorf("session %d: untyped mid-shutdown error: %v", s, err)
						return
					}
				}
			}
		}(s)
	}
	// The snapshot save races both the streams and the shutdown.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Session(0).SaveSnapshot(io.Discard); err != nil {
			t.Errorf("snapshot save during shutdown: %v", err)
		}
	}()
	time.Sleep(2 * time.Millisecond) // let the streams get mid-Process
	p.Close()
	wg.Wait()
	p.Close() // second Close is a no-op
	// The micro-batcher's flush goroutine must have exited.
	checkLeak()
}

// TestPoolHoldsFullCapacity: sessions sharing one store fill all of
// its capacity. Once DNN inserts outnumber the slots, the store must
// sit exactly at Capacity and evict from there — a store split into
// unevenly loaded parts would hold fewer entries than it was given.
func TestPoolHoldsFullCapacity(t *testing.T) {
	const sessions, capacity = 4, 64
	// Many classes under the hard perturbation profile: most frames
	// miss, so DNN results keep arriving after the store is full.
	spec := approxcache.StationaryHeavyWorkload(200, 3)
	spec.NumClasses = 32
	spec.Hard = true
	w, err := approxcache.GenerateWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(t, sessions, w, approxcache.Options{
		Capacity:         capacity,
		DisableIMUGate:   true,
		DisableVideoGate: true,
	})
	for s := 0; s < sessions; s++ {
		replay(t, p.Session(s), w)
	}
	if dnn := p.Stats().CountBySource()[approxcache.SourceDNN]; dnn <= capacity {
		t.Fatalf("only %d DNN inserts for capacity %d; the test needs more", dnn, capacity)
	}
	if got := p.Len(); got != capacity {
		t.Fatalf("Len = %d, want the full capacity %d", got, capacity)
	}
	if p.Session(0).Evictions() == 0 {
		t.Fatal("no evictions after filling the store past capacity")
	}
}
