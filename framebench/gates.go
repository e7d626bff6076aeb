package main

import (
	"runtime"
	"time"

	"approxcache/internal/core"
	"approxcache/internal/imu"
	"approxcache/internal/metrics"
	"approxcache/internal/video"
	"approxcache/internal/vision"
)

// The engine calls the sensor guards, the IMU detector and the keyframe
// library internally, with no interface to wrap. The traced run times
// them by replaying the workload's frames and IMU windows through the
// same public functions, configured as the engine configures them:
// every frame is checked (vision.CheckFrame) and gated on motion
// (imu.CheckWindow, Detector.ObserveAll, AllowReuse); every frame after
// the first refresh is matched against the keyframes; and the frames
// the engine refreshed its scene on (served local, peer or dnn) are
// pushed and reset the rotation integrator.

// gateStats holds the replayed per-call times (µs) and the bytes one
// keyframe push allocates.
type gateStats struct {
	check, imuGate, match, push []float64
	pushBytes                   float64
}

// sink keeps replayed results alive so the calls are not optimised out.
var sink struct {
	frame vision.FrameFault
	win   imu.WindowFault
	reuse bool
	kf    video.Keyframe
}

// refreshes reports whether the engine re-anchors its scene after a
// frame served from src.
func refreshes(src metrics.Source) bool {
	return src == metrics.SourceLocal || src == metrics.SourcePeer || src == metrics.SourceDNN
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replayGates replays steps (with the sources the engine served them
// from) through the vision, imu and video functions.
func replayGates(steps []step, srcs []metrics.Source) (gateStats, error) {
	cfg := core.DefaultConfig()
	devices := 0
	for _, st := range steps {
		devices = max(devices, st.device+1)
	}
	newLibs := func() ([]*video.KeyframeLibrary, error) {
		libs := make([]*video.KeyframeLibrary, devices)
		for d := range libs {
			l, err := video.NewKeyframeLibrary(cfg.Diff, cfg.KeyframeCapacity)
			if err != nil {
				return nil, err
			}
			libs[d] = l
		}
		return libs, nil
	}
	libs, err := newLibs()
	if err != nil {
		return gateStats{}, err
	}
	dets := make([]*imu.Detector, devices)
	for d := range dets {
		if dets[d], err = imu.NewDetector(cfg.IMU); err != nil {
			return gateStats{}, err
		}
	}
	var g gateStats
	im := vision.NewImage(frameSide, frameSide)
	for i, st := range steps {
		f := st.frame
		f.expand(im)
		t := time.Now()
		sink.frame = vision.CheckFrame(im, cfg.FrameGuard)
		g.check = append(g.check, us(time.Since(t)))

		det := dets[st.device]
		t = time.Now()
		sink.win = imu.CheckWindow(f.imu, cfg.IMUGuard)
		if sink.win == imu.WindowOK {
			det.ObserveAll(f.imu)
		}
		sink.reuse = det.AllowReuse()
		g.imuGate = append(g.imuGate, us(time.Since(t)))

		lib := libs[st.device]
		if lib.Len() > 0 {
			t = time.Now()
			sink.kf, sink.reuse = lib.Match(im)
			g.match = append(g.match, us(time.Since(t)))
		}
		if refreshes(srcs[i]) {
			t = time.Now()
			lib.Push(im, f.truth, 1)
			g.push = append(g.push, us(time.Since(t)))
			det.Mark()
		}
	}
	// Allocation per push, measured on a second pass of pushes alone.
	if libs, err = newLibs(); err != nil {
		return gateStats{}, err
	}
	var pushBytes uint64
	pushes := 0
	var m0, m1 runtime.MemStats
	for i, st := range steps {
		if refreshes(srcs[i]) {
			st.frame.expand(im)
			runtime.ReadMemStats(&m0)
			libs[st.device].Push(im, st.frame.truth, 1)
			runtime.ReadMemStats(&m1)
			pushBytes += m1.TotalAlloc - m0.TotalAlloc
			pushes++
		}
	}
	g.pushBytes = ratio(float64(pushBytes), float64(pushes))
	return g, nil
}
