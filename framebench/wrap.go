package main

import (
	"errors"
	"io"
	"sync/atomic"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/p2p"
	"approxcache/internal/simnet"
	"approxcache/internal/vision"
)

// The traced run times every layer from outside: each wrapper below
// implements one injectable layer interface, records a span around the
// public call, and forwards to the real implementation. No program file
// changes. Wrappers also implement the optional fast-path interfaces
// (lsh.IntoIndex, feature.IntoExtractor) of what they wrap, so the
// engine takes the same zero-allocation paths as without tracing.

func errFlag(err error) uint8 {
	if err != nil {
		return flagErr
	}
	return 0
}

// tracedClassifier wraps core.Classifier.
type tracedClassifier struct {
	inner core.Classifier
	r     *recorder
}

func (c *tracedClassifier) Infer(im *vision.Image) (dnn.Inference, error) {
	i := c.r.begin(kInfer)
	inf, err := c.inner.Infer(im)
	c.r.end(i, int64(inf.Latency), 0, errFlag(err))
	return inf, err
}

func (c *tracedClassifier) Profile() dnn.Profile { return c.inner.Profile() }

// tracedExtractor wraps feature.Extractor.
type tracedExtractor struct {
	inner feature.Extractor
	r     *recorder
}

var _ feature.IntoExtractor = (*tracedExtractor)(nil)

func (e *tracedExtractor) Extract(im *vision.Image) (feature.Vector, error) {
	i := e.r.begin(kExtract)
	v, err := e.inner.Extract(im)
	e.r.end(i, 0, 0, errFlag(err))
	return v, err
}

func (e *tracedExtractor) ExtractInto(im *vision.Image, dst feature.Vector) (feature.Vector, error) {
	i := e.r.begin(kExtract)
	v, err := feature.ExtractInto(e.inner, im, dst)
	e.r.end(i, 0, 0, errFlag(err))
	return v, err
}

func (e *tracedExtractor) Dim() int     { return e.inner.Dim() }
func (e *tracedExtractor) Name() string { return e.inner.Name() }

// removals counts store Remove calls in flight on one store, shared by
// its local and peer-side wrappers and read by its index wrapper.
type removals struct{ n atomic.Int32 }

// tracedIndex wraps lsh.Index; it requires the wrapped index to be an
// lsh.IntoIndex, as every index the facade builds is.
type tracedIndex struct {
	inner lsh.IntoIndex
	r     *recorder
	rm    *removals
}

var _ lsh.IntoIndex = (*tracedIndex)(nil)

func (x *tracedIndex) Insert(id lsh.ID, v feature.Vector) error {
	i := x.r.begin(kLSHInsert)
	err := x.inner.Insert(id, v)
	x.r.end(i, 0, 0, errFlag(err))
	return err
}

func (x *tracedIndex) Remove(id lsh.ID) {
	i := x.r.begin(kLSHRemove)
	x.inner.Remove(id)
	var f uint8
	if x.rm.n.Load() > 0 {
		f = flagUnderRemove
	}
	x.r.end(i, 0, 0, f)
}

func (x *tracedIndex) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	i := x.r.begin(kLSHNearest)
	ns, err := x.inner.Nearest(q, k)
	x.r.end(i, 0, 0, errFlag(err))
	return ns, err
}

func (x *tracedIndex) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	i := x.r.begin(kLSHNearest)
	ns, err := x.inner.NearestInto(q, k, dst)
	x.r.end(i, 0, 0, errFlag(err))
	return ns, err
}

func (x *tracedIndex) Len() int { return x.inner.Len() }

// tracedStore wraps cachestore.Interface. base is kStoreInsert for the
// device's own engine and kPeerInsert for its peer service.
type tracedStore struct {
	inner cachestore.Interface
	r     *recorder
	rm    *removals
	base  kind
}

var _ cachestore.Interface = (*tracedStore)(nil)

func (s *tracedStore) k(local kind) kind { return local - kStoreInsert + s.base }

func (s *tracedStore) Insert(vec feature.Vector, label string, confidence float64, source string, savedCost time.Duration) (lsh.ID, error) {
	i := s.r.begin(s.k(kStoreInsert))
	id, err := s.inner.Insert(vec, label, confidence, source, savedCost)
	s.r.end(i, 0, 0, errFlag(err))
	return id, err
}

func (s *tracedStore) Get(id lsh.ID) (cachestore.Entry, bool) {
	i := s.r.begin(s.k(kStoreGet))
	e, ok := s.inner.Get(id)
	s.r.end(i, 0, 0, 0)
	return e, ok
}

func (s *tracedStore) Touch(id lsh.ID) {
	i := s.r.begin(s.k(kStoreTouch))
	s.inner.Touch(id)
	s.r.end(i, 0, 0, 0)
}

func (s *tracedStore) Label(id lsh.ID) (string, bool) {
	i := s.r.begin(s.k(kStoreLabel))
	l, ok := s.inner.Label(id)
	s.r.end(i, 0, 0, 0)
	return l, ok
}

func (s *tracedStore) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	i := s.r.begin(s.k(kStoreNearest))
	ns, err := s.inner.Nearest(q, k)
	s.r.end(i, 0, 0, errFlag(err))
	return ns, err
}

func (s *tracedStore) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	i := s.r.begin(s.k(kStoreNearest))
	ns, err := s.inner.NearestInto(q, k, dst)
	s.r.end(i, 0, 0, errFlag(err))
	return ns, err
}

func (s *tracedStore) Remove(id lsh.ID) {
	i := s.r.begin(s.k(kStoreRemove))
	s.rm.n.Add(1)
	s.inner.Remove(id)
	s.rm.n.Add(-1)
	s.r.end(i, 0, 0, 0)
}

// The quality layer's calls, counters and persistence pass through
// untimed: the benchmarked pipeline does not call them per frame.

func (s *tracedStore) Confirm(id lsh.ID)     { s.inner.Confirm(id) }
func (s *tracedStore) Refute(id lsh.ID) bool { return s.inner.Refute(id) }
func (s *tracedStore) Parole(id lsh.ID, ok bool) cachestore.ParoleOutcome {
	return s.inner.Parole(id, ok)
}
func (s *tracedStore) Snapshot() []cachestore.Entry { return s.inner.Snapshot() }

func (s *tracedStore) Quarantined(id lsh.ID) bool                  { return s.inner.Quarantined(id) }
func (s *tracedStore) QuarantineStats() cachestore.QuarantineStats { return s.inner.QuarantineStats() }
func (s *tracedStore) Len() int                                    { return s.inner.Len() }
func (s *tracedStore) Evictions() int                              { return s.inner.Evictions() }
func (s *tracedStore) Expiries() int                               { return s.inner.Expiries() }
func (s *tracedStore) Stats() cachestore.StoreStats                { return s.inner.Stats() }
func (s *tracedStore) Export(w io.Writer) error                    { return s.inner.Export(w) }
func (s *tracedStore) Import(r io.Reader) (int, error)             { return s.inner.Import(r) }

// tracedTransport wraps p2p.Transport.
type tracedTransport struct {
	inner p2p.Transport
	r     *recorder
}

var _ p2p.Transport = (*tracedTransport)(nil)

func lossFlags(err error) uint8 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, simnet.ErrLost):
		return flagErr | flagLost
	}
	return flagErr
}

func (t *tracedTransport) Call(peer string, req []byte) ([]byte, time.Duration, error) {
	i := t.r.begin(kCall)
	resp, rtt, err := t.inner.Call(peer, req)
	t.r.end(i, int64(rtt), len(req), lossFlags(err))
	return resp, rtt, err
}

func (t *tracedTransport) Send(peer string, payload []byte) (time.Duration, error) {
	i := t.r.begin(kSend)
	cost, err := t.inner.Send(peer, payload)
	t.r.end(i, int64(cost), len(payload), lossFlags(err))
	return cost, err
}
