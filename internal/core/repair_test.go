package core

import (
	"testing"
	"time"

	"approxcache/internal/dnn"
	"approxcache/internal/metrics"
)

// poisonCache inserts a wrong-label entry exactly where the prototype's
// feature vector sits, so the local cache would serve it.
func poisonCache(t *testing.T, f *fixture, cfg Config, class int, wrongLabel string) {
	t.Helper()
	proto, err := f.classes.Prototype(class)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := cfg.Extractor.Extract(proto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Insert(vec, wrongLabel, 0.99, "dnn", 120*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestRepairPurgesContradictedEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	cfg.MaxReuseStreak = 1 // revalidate aggressively
	f := newFixture(t, cfg, nil)
	poisonCache(t, f, cfg, 0, "poison")
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	// First frame: served by the poisoned local entry.
	res, err := f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceLocal || res.Label != "poison" {
		t.Fatalf("poisoned entry not served: %+v", res)
	}
	// Second frame: streak bound forces revalidation; the DNN (perfect
	// in this fixture) contradicts the poison, which must be purged.
	res, err = f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceDNN || res.Label != dnn.LabelOf(0) {
		t.Fatalf("revalidation did not run: %+v", res)
	}
	if got := f.engine.Stats().Repairs(); got != 1 {
		t.Fatalf("repairs = %d, want 1", got)
	}
	// Third frame (streak reset, next reuse attempt): the poison is
	// gone, so the vote now returns the correct label.
	res, err = f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != dnn.LabelOf(0) {
		t.Fatalf("poison survived repair: %+v", res)
	}
}

func TestRepairDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	cfg.DisableRepair = true
	cfg.MaxReuseStreak = 1
	f := newFixture(t, cfg, nil)
	poisonCache(t, f, cfg, 1, "poison")
	proto, err := f.classes.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.engine.Stats().Repairs(); got != 0 {
		t.Fatalf("repairs = %d with repair disabled", got)
	}
}

func TestRepairDoesNotPurgeAgreeingEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	cfg.MaxReuseStreak = 1
	f := newFixture(t, cfg, nil)
	// Correct-label entry at the prototype's position.
	poisonCache(t, f, cfg, 2, dnn.LabelOf(2))
	proto, err := f.classes.Prototype(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.engine.Stats().Repairs(); got != 0 {
		t.Fatalf("agreeing entry purged: repairs = %d", got)
	}
}

// TestVideoGateOffStoresNoKeyframes checks that refreshScene skips the
// keyframe copy when the video gate cannot use it.
func TestVideoGateOffStoresNoKeyframes(t *testing.T) {
	for _, off := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DisableIMUGate = true
		cfg.DisableVideoGate = off
		f := newFixture(t, cfg, nil)
		for c := 0; c < 3; c++ {
			proto, err := f.classes.Prototype(c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(c)); err != nil {
				t.Fatal(err)
			}
		}
		if got := f.engine.keyframes.Len(); (got == 0) != off {
			t.Fatalf("DisableVideoGate=%v: %d keyframes stored", off, got)
		}
	}
}
