package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"approxcache/internal/dnn"
	"approxcache/internal/imu"
	"approxcache/internal/trace"
	"approxcache/internal/vision"
)

// Inputs are generated once per run, before any system is built, from
// the --seed argument and the workload's fixed vocabulary (worldSeed).
// The program under test only ever sees the generated frames, IMU
// windows and truth labels.

// frameSide is the frame width and height of every workload.
const frameSide = 48

// frameIn is one pre-generated frame. Pixels are kept at 8 bits, as a
// camera delivers them (2.3 KB instead of 18 KB of float64), and are
// expanded into a bounded stage of float64 images before each timed
// round (see stage), so long traces fit in memory.
type frameIn struct {
	pix []uint8
	// imu is the inertial window (previous frame, this frame]; nil
	// when the stream carries no IMU or no sample fell in the window.
	imu   []imu.Sample
	truth string
}

// compact quantizes a rendered frame to 8 bits.
func compact(im *vision.Image) []uint8 {
	out := make([]uint8, len(im.Pix))
	for i, p := range im.Pix {
		out[i] = uint8(math.Round(p * 255))
	}
	return out
}

// pixelValue maps an 8-bit pixel back to [0,1].
var pixelValue = func() (t [256]float64) {
	for i := range t {
		t[i] = float64(i) / 255
	}
	return t
}()

// expand writes f's pixels into im, a frameSide×frameSide image.
func (f *frameIn) expand(im *vision.Image) {
	for i, p := range f.pix {
		im.Pix[i] = pixelValue[p]
	}
}

// stage is a bounded set of reusable float64 images one round's
// frames are expanded into.
type stage []*vision.Image

func newStage(n int) stage {
	s := make(stage, n)
	for i := range s {
		s[i] = vision.NewImage(frameSide, frameSide)
	}
	return s
}

// sizes fixes how much input each workload generates. The benchmark
// runs at fullSize; tests use smokeSize.
type sizes struct {
	// scriptFrames is the device-mix length of each canonical script.
	scriptFrames int
	// roundFrames is how many frames device-mix and peer-crowd replay
	// per round, and so how many float64 frames are staged at once.
	roundFrames int
	// churnClasses, churnCapacity and churnBank shape serving-churn:
	// the class vocabulary, the store capacity and the frame bank.
	churnClasses, churnCapacity, churnBank int
	// churnFrames is how many frames each serving-churn session sends
	// per episode.
	churnFrames int
	// crowdFrames is the peer-crowd length per device.
	crowdFrames int
}

var fullSize = sizes{
	scriptFrames:  6000,
	roundFrames:   4000,
	churnClasses:  1000,
	churnCapacity: 4096,
	churnBank:     8192,
	churnFrames:   5000,
	crowdFrames:   6000,
}

var smokeSize = sizes{
	scriptFrames:  40,
	roundFrames:   50,
	churnClasses:  40,
	churnCapacity: 64,
	churnBank:     128,
	churnFrames:   150,
	crowdFrames:   50,
}

// subSeed derives an independent seed for one input stream from the
// run seed (splitmix64), so neighbouring run seeds do not produce
// overlapping streams.
func subSeed(seed int64, stream uint64) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>1) | 1 // positive and non-zero: trace treats 0 as unset
}

// worldSeed seeds a workload's object vocabulary (its class set). The
// vocabulary is part of the workload's definition and does not change
// with --seed; the seed draws the frames, motion, noise and orders seen
// in that world. Redrawing the world per seed would change how
// separable the classes are, and with it accuracy and the index's
// bucket skew, by more than any change to the program should.
func worldSeed(stream uint64) int64 { return subSeed(0, stream) }

// labels returns the truth label of every class, built once so frames
// share the strings.
func labels(n int) []string {
	out := make([]string, n)
	for c := range out {
		out[c] = dnn.LabelOf(c)
	}
	return out
}

// imuWindows slices samples, sorted by Offset, into the window
// (offsets[i-1], offsets[i]] of every frame (the first window starts at
// 0), exactly as trace.Workload.IMUWindow returns them, with one
// forward cursor instead of a scan of the whole stream per frame. The
// windows alias samples.
func imuWindows(samples []imu.Sample, offsets []time.Duration) [][]imu.Sample {
	out := make([][]imu.Sample, len(offsets))
	lo := 0
	prev := time.Duration(0)
	for i, to := range offsets {
		for lo < len(samples) && samples[lo].Offset <= prev {
			lo++
		}
		hi := lo
		for hi < len(samples) && samples[hi].Offset <= to {
			hi++
		}
		if hi > lo {
			out[i] = samples[lo:hi:hi]
		}
		lo, prev = hi, to
	}
	return out
}

// deviceInputs is one device's frame stream plus its class set.
type deviceInputs struct {
	classes *vision.ClassSet
	frames  []frameIn
}

// appendWorkload renders spec and appends its frames, with IMU windows,
// to frames; base shifts the workload's clock so concatenated scripts
// form one continuous stream.
func appendWorkload(spec trace.Spec, base time.Duration, names []string, samples []imu.Sample, offsets []time.Duration, frames []frameIn) (*vision.ClassSet, []imu.Sample, []time.Duration, []frameIn, error) {
	w, err := trace.Generate(spec)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	for _, s := range w.IMU {
		s.Offset += base
		samples = append(samples, s)
	}
	for _, f := range w.Frames {
		offsets = append(offsets, base+f.Offset)
		frames = append(frames, frameIn{pix: compact(f.Image), truth: names[f.Class]})
	}
	return w.Classes, samples, offsets, frames, nil
}

// deviceMixInputs concatenates the four canonical scripts
// (stationary-heavy, handheld-mix, walking-tour, panning-sweep) into
// one device's stream. The scripts share one class set, so one
// classifier labels the whole stream.
func deviceMixInputs(seed int64, sz sizes) (*deviceInputs, error) {
	specs := trace.StandardSpecs(sz.scriptFrames, subSeed(seed, 1))
	classSeed := worldSeed(2)
	var (
		in      deviceInputs
		samples []imu.Sample
		offsets []time.Duration
		base    time.Duration
	)
	for _, spec := range specs {
		spec.ClassSeed = classSeed
		cs, s, o, f, err := appendWorkload(spec, base, labels(spec.NumClasses), samples, offsets, in.frames)
		if err != nil {
			return nil, err
		}
		in.classes, samples, offsets, in.frames = cs, s, o, f
		base += spec.Duration()
	}
	for i, w := range imuWindows(samples, offsets) {
		in.frames[i].imu = w
	}
	return &in, nil
}

// crowdInputs is the peer-crowd input: one stream per device and the
// order in which one goroutine interleaves them.
type crowdInputs struct {
	devices []*deviceInputs
	// order lists, per step, the device whose next frame is due.
	order []uint8
}

// crowdDevices is the number of devices in peer-crowd.
const crowdDevices = 4

// crowdClasses is the shared vocabulary of peer-crowd.
const crowdClasses = 64

// peerCrowdInputs renders crowdDevices walking-then-panning streams
// under the hard perturbation over one shared, Zipf-skewed vocabulary,
// and interleaves them by timestamp (ties go to the lower device).
func peerCrowdInputs(seed int64, sz sizes) (*crowdInputs, error) {
	classSeed := worldSeed(3)
	names := labels(crowdClasses)
	in := &crowdInputs{}
	for d := 0; d < crowdDevices; d++ {
		walk := sz.crowdFrames / 2
		spec := trace.Spec{
			Name:       fmt.Sprintf("device-%d", d),
			FPS:        15,
			IMURateHz:  100,
			NumClasses: crowdClasses,
			ImageW:     frameSide,
			ImageH:     frameSide,
			Segments: []trace.SegmentSpec{
				{Regime: "walking", Frames: walk},
				{Regime: "panning", Frames: sz.crowdFrames - walk},
			},
			Hard:      true,
			Seed:      subSeed(seed, uint64(10+d)),
			ClassSeed: classSeed,
			ClassSkew: 1.0,
		}
		cs, samples, offsets, frames, err := appendWorkload(spec, 0, names, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		for i, w := range imuWindows(samples, offsets) {
			frames[i].imu = w
		}
		in.devices = append(in.devices, &deviceInputs{classes: cs, frames: frames})
	}
	// Every device runs at the same frame rate, so timestamp order is
	// round-robin over devices.
	for i := 0; i < sz.crowdFrames; i++ {
		for d := 0; d < crowdDevices; d++ {
			in.order = append(in.order, uint8(d))
		}
	}
	return in, nil
}

// churnInputs is the serving-churn input: a bank of independent frames,
// the order set-up fills the store in, and the per-episode streams.
type churnInputs struct {
	classes *vision.ClassSet
	bank    []frameIn
	// fill is the bank order replayed during set-up to fill the store.
	fill []int32
	// perSession is how many frames each session sends per episode.
	perSession int
	seed       int64
}

// churnSessions is the number of serving-churn sessions (driving
// goroutines).
const churnSessions = 2

// servingChurnInputs renders a bank of churnBank frames of uniformly
// drawn classes under the hard perturbation, and a random fill order.
func servingChurnInputs(seed int64, sz sizes) (*churnInputs, error) {
	cs, err := vision.NewClassSet(sz.churnClasses, frameSide, frameSide, worldSeed(4))
	if err != nil {
		return nil, err
	}
	names := labels(sz.churnClasses)
	rng := rand.New(rand.NewSource(subSeed(seed, 5)))
	in := &churnInputs{classes: cs, bank: make([]frameIn, sz.churnBank), perSession: sz.churnFrames, seed: seed}
	perturb := vision.HardPerturbation()
	for i := range in.bank {
		c := rng.Intn(sz.churnClasses)
		im, err := cs.Render(c, perturb, rng)
		if err != nil {
			return nil, err
		}
		in.bank[i] = frameIn{pix: compact(im), truth: names[c]}
	}
	for _, i := range rng.Perm(sz.churnBank) {
		in.fill = append(in.fill, int32(i))
	}
	return in, nil
}

// streams draws episode ep's frame sequence for every session: uniform
// draws from the bank. Each episode draws afresh, so a run averages
// over more of the bank than one episode sees.
func (in *churnInputs) streams(ep int) [][]int32 {
	rng := rand.New(rand.NewSource(subSeed(in.seed, uint64(100+ep))))
	out := make([][]int32, churnSessions)
	for s := range out {
		out[s] = make([]int32, in.perSession)
		for i := range out[s] {
			out[s][i] = int32(rng.Intn(len(in.bank)))
		}
	}
	return out
}
