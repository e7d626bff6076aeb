package main

import (
	"fmt"

	"approxcache"
	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/simnet"
	"approxcache/internal/vision"
)

// processor is one session's entry point. *approxcache.Cache and
// *core.Engine both implement it.
type processor interface {
	ProcessWithTruth(im *vision.Image, win []imu.Sample, truth string) (core.Result, error)
}

// storeView is the part of a store the benchmark reads after a run.
type storeView interface {
	Len() int
	Evictions() int
}

// node is one built device or serving node.
type node struct {
	sessions []processor
	stats    *metrics.SessionStats
	store    storeView
	// join attaches the node to a simulated network under name.
	join func(net *simnet.Network, name string) (*p2p.Client, error)
	// index is the node's LSH index (traced assembly only).
	index *lsh.HyperplaneIndex
	close func()
}

// assembly builds classifiers and nodes. facade goes through the public
// approxcache API; traced builds the same pipeline from the internal
// constructors with every layer wrapped in a span recorder.
type assembly interface {
	classifier(classes *vision.ClassSet, seed int64) (core.Classifier, error)
	node(clf core.Classifier, sessions int, opts approxcache.Options) (*node, error)
}

// facade is the untraced assembly: exactly what a user of the library
// builds.
type facade struct{}

func (facade) classifier(classes *vision.ClassSet, seed int64) (core.Classifier, error) {
	return approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, &approxcache.Workload{Classes: classes}, seed)
}

func (facade) node(clf core.Classifier, sessions int, opts approxcache.Options) (*node, error) {
	if sessions == 1 {
		c, err := approxcache.New(clf, opts)
		if err != nil {
			return nil, err
		}
		return &node{sessions: []processor{c}, stats: c.Stats(), store: c, join: c.JoinSimNetwork, close: func() {}}, nil
	}
	p, err := approxcache.NewPool(sessions, clf, opts)
	if err != nil {
		return nil, err
	}
	n := &node{stats: p.Stats(), store: p.Session(0), close: p.Close}
	for _, c := range p.Sessions() {
		n.sessions = append(n.sessions, c)
	}
	return n, nil
}

// traced is the traced assembly. It reproduces what approxcache.New,
// NewPool and JoinSimNetwork build for the options the workloads use
// (Clock, Capacity, DisableIMUGate, DisableVideoGate) and refuses any
// other option, so it cannot drift from the facade unnoticed; the
// label/source sequence check then proves the two equal.
type traced struct{ r *recorder }

func (t traced) classifier(classes *vision.ClassSet, seed int64) (core.Classifier, error) {
	c, err := dnn.NewClassifier(dnn.MobileNetV2, classes, seed)
	if err != nil {
		return nil, err
	}
	return &tracedClassifier{inner: c, r: t.r}, nil
}

func (t traced) node(clf core.Classifier, sessions int, opts approxcache.Options) (*node, error) {
	rest := opts
	rest.Clock, rest.Capacity, rest.DisableIMUGate, rest.DisableVideoGate = nil, 0, false, false
	if rest != (approxcache.Options{}) {
		return nil, fmt.Errorf("traced assembly: unsupported options %+v", rest)
	}
	// The facade's defaults: capacity 256, cost-aware eviction, a
	// 12-bit × 4-table hyperplane index seeded 1, untuned.
	capacity := opts.Capacity
	if capacity == 0 {
		capacity = 256
	}
	cfg := core.DefaultConfig()
	cfg.DisableIMUGate = opts.DisableIMUGate
	cfg.DisableVideoGate = opts.DisableVideoGate
	cfg.Extractor = &tracedExtractor{inner: cfg.Extractor, r: t.r}
	idx, err := lsh.NewHyperplaneTuned(cfg.Extractor.Dim(), 12, 4, 1, cfg.IndexTuning)
	if err != nil {
		return nil, err
	}
	rm := &removals{}
	inner, err := cachestore.New(cachestore.Config{Capacity: capacity, Policy: cachestore.CostAware},
		&tracedIndex{inner: idx, r: t.r, rm: rm}, opts.Clock)
	if err != nil {
		return nil, err
	}
	deps := core.Deps{
		Clock:      opts.Clock,
		Classifier: clf,
		Store:      &tracedStore{inner: inner, r: t.r, rm: rm, base: kStoreInsert},
	}
	n := &node{store: inner, index: idx, close: func() {}}
	if sessions > 1 {
		pool, err := core.NewPool(sessions, cfg, deps)
		if err != nil {
			return nil, err
		}
		for _, e := range pool.Sessions() {
			n.sessions = append(n.sessions, e)
		}
		n.stats = pool.Stats()
		return n, nil
	}
	e, err := core.New(cfg, deps)
	if err != nil {
		return nil, err
	}
	n.sessions, n.stats = []processor{e}, e.Stats()
	n.join = func(net *simnet.Network, name string) (*p2p.Client, error) {
		peerSide := &tracedStore{inner: inner, r: t.r, rm: rm, base: kPeerInsert}
		svc, err := p2p.NewService(p2p.DefaultServiceConfig(name), peerSide)
		if err != nil {
			return nil, err
		}
		if err := p2p.RegisterService(net, svc); err != nil {
			return nil, err
		}
		tr, err := p2p.NewSimnetTransport(name, net)
		if err != nil {
			return nil, err
		}
		ccfg := p2p.DefaultClientConfig()
		ccfg.Clock = opts.Clock
		client, err := p2p.NewClient(ccfg, &tracedTransport{inner: tr, r: t.r})
		if err != nil {
			return nil, err
		}
		e.SetPeers(client)
		return client, nil
	}
	return n, nil
}
