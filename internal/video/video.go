// Package video provides the video-stream substrate: a synthetic,
// scene-structured frame stream generator and the frame-difference gate
// that exploits the temporal locality inherent in video.
//
// Scene structure is driven by the device's motion regime: while the
// device is stationary or handheld the camera keeps seeing the same
// scene (same class); while walking or panning the scene changes every
// few frames. Every frame carries ground truth (class and scene id), so
// reuse correctness is measurable exactly.
package video

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"approxcache/internal/imu"
	"approxcache/internal/vision"
)

// Frame is one generated video frame with ground truth.
type Frame struct {
	// Index is the frame number within the stream.
	Index int
	// Offset is the frame time relative to stream start.
	Offset time.Duration
	// Image is the rendered frame.
	Image *vision.Image
	// Class is the true object class shown.
	Class int
	// Scene is a monotonically increasing scene-segment id; frames
	// with equal Scene show the same physical scene.
	Scene int
	// Regime is the device motion regime during this frame.
	Regime imu.Regime
}

// Segment is a contiguous stretch of a workload in one motion regime.
type Segment struct {
	// Regime is the motion regime of the segment.
	Regime imu.Regime
	// Frames is the segment length in frames.
	Frames int
}

// StreamConfig parameterizes a synthetic stream.
type StreamConfig struct {
	// FPS is the frame rate. Typical mobile recognition apps sample
	// 10–30 fps.
	FPS int
	// Segments is the motion-regime script.
	Segments []Segment
	// Perturb is the per-frame perturbation applied within a scene.
	Perturb vision.Perturbation
	// SceneHold overrides how many frames a scene lasts in
	// non-stable regimes. Zero selects per-regime defaults
	// (walking 15, panning 8).
	SceneHold int
	// ClassWeights biases which class each new scene shows. Empty
	// means uniform; otherwise it must have one non-negative weight
	// per class with a positive sum. Skewed weights model popular
	// objects (the exhibits everyone photographs), which is what makes
	// peer-to-peer reuse pay off.
	ClassWeights []float64
	// Seed drives all randomness.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c StreamConfig) Validate() error {
	if c.FPS <= 0 {
		return fmt.Errorf("video: fps must be positive, got %d", c.FPS)
	}
	if len(c.Segments) == 0 {
		return fmt.Errorf("video: stream needs at least one segment")
	}
	for i, s := range c.Segments {
		if s.Frames <= 0 {
			return fmt.Errorf("video: segment %d has non-positive length %d", i, s.Frames)
		}
		switch s.Regime {
		case imu.Stationary, imu.Handheld, imu.Walking, imu.Panning:
		default:
			return fmt.Errorf("video: segment %d has unknown regime %d", i, int(s.Regime))
		}
	}
	if c.SceneHold < 0 {
		return fmt.Errorf("video: scene hold must be non-negative, got %d", c.SceneHold)
	}
	if len(c.ClassWeights) > 0 {
		var sum float64
		for i, w := range c.ClassWeights {
			if w < 0 {
				return fmt.Errorf("video: class weight %d is negative", i)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("video: class weights sum to zero")
		}
	}
	return nil
}

// sceneHold returns how many frames a scene persists in regime r.
func (c StreamConfig) sceneHold(r imu.Regime) int {
	if c.SceneHold > 0 {
		return c.SceneHold
	}
	switch r {
	case imu.Walking:
		return 15
	case imu.Panning:
		return 8
	default:
		return 1 << 30 // scene-stable regimes hold for the segment
	}
}

// Generate renders the stream described by cfg over classes.
func Generate(cfg StreamConfig, classes *vision.ClassSet) ([]Frame, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if classes == nil {
		return nil, fmt.Errorf("video: nil class set")
	}
	if len(cfg.ClassWeights) > 0 && len(cfg.ClassWeights) != classes.NumClasses() {
		return nil, fmt.Errorf("video: %d class weights for %d classes",
			len(cfg.ClassWeights), classes.NumClasses())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	frameDur := time.Second / time.Duration(cfg.FPS)

	var (
		out       []Frame
		index     int
		scene     = -1
		class     int
		heldSince int
	)
	newScene := func() {
		scene++
		heldSince = index
		// Draw a new class, avoiding an immediate repeat when
		// possible so scene changes are visible.
		if classes.NumClasses() > 1 {
			class = pickClass(rng, cfg.ClassWeights, classes.NumClasses(), class)
		} else {
			class = 0
		}
	}
	newScene()
	for _, seg := range cfg.Segments {
		hold := cfg.sceneHold(seg.Regime)
		// Entering a non-stable segment means the camera starts
		// moving: the scene changes at segment boundaries too.
		if !seg.Regime.SceneStable() {
			newScene()
		}
		for f := 0; f < seg.Frames; f++ {
			if index-heldSince >= hold {
				newScene()
			}
			im, err := classes.Render(class, cfg.Perturb, rng)
			if err != nil {
				return nil, fmt.Errorf("render frame %d: %w", index, err)
			}
			out = append(out, Frame{
				Index:  index,
				Offset: time.Duration(index) * frameDur,
				Image:  im,
				Class:  class,
				Scene:  scene,
				Regime: seg.Regime,
			})
			index++
		}
	}
	return out, nil
}

// pickClass draws the next scene's class, excluding the previous one.
// With weights it samples the renormalized weighted distribution;
// without, it samples uniformly.
func pickClass(rng *rand.Rand, weights []float64, numClasses, exclude int) int {
	if len(weights) == 0 {
		next := rng.Intn(numClasses - 1)
		if next >= exclude {
			next++
		}
		return next
	}
	var sum float64
	for c, w := range weights {
		if c != exclude {
			sum += w
		}
	}
	if sum <= 0 {
		// All remaining mass sits on the excluded class; fall back to
		// uniform over the rest.
		next := rng.Intn(numClasses - 1)
		if next >= exclude {
			next++
		}
		return next
	}
	r := rng.Float64() * sum
	for c, w := range weights {
		if c == exclude {
			continue
		}
		r -= w
		if r <= 0 {
			return c
		}
	}
	// Rounding fell off the end: return the last non-excluded class.
	if exclude == numClasses-1 {
		return numClasses - 2
	}
	return numClasses - 1
}

// ZipfWeights returns numClasses weights with weight(rank k) ∝ 1/k^s.
// s = 0 is uniform; s around 1 gives the heavy skew typical of
// popularity distributions.
func ZipfWeights(numClasses int, s float64) []float64 {
	if numClasses <= 0 {
		return nil
	}
	out := make([]float64, numClasses)
	for k := range out {
		out[k] = 1 / math.Pow(float64(k+1), s)
	}
	return out
}

// DiffGateConfig tunes the frame-difference gate.
type DiffGateConfig struct {
	// Threshold is the maximum mean absolute pixel difference (in
	// [0,1]) against the keyframe for which frames count as "same
	// scene".
	Threshold float64
}

// Validate reports whether the configuration is usable.
func (c DiffGateConfig) Validate() error {
	if c.Threshold <= 0 || c.Threshold >= 1 {
		return fmt.Errorf("video: diff threshold must be in (0,1), got %v", c.Threshold)
	}
	return nil
}

// DefaultDiffGateConfig returns the threshold tuned to the default
// perturbation profile: same-scene jitter passes, scene changes fail.
func DefaultDiffGateConfig() DiffGateConfig {
	return DiffGateConfig{Threshold: 0.13}
}

// DiffGate tracks the last recognized keyframe and answers "is this
// frame close enough to reuse the keyframe's result?". DiffGate is not
// safe for concurrent use; each device pipeline owns one.
type DiffGate struct {
	cfg DiffGateConfig
	key *vision.Image
}

// NewDiffGate builds a gate with cfg.
func NewDiffGate(cfg DiffGateConfig) (*DiffGate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DiffGate{cfg: cfg}, nil
}

// Similar reports whether im is within threshold of the current
// keyframe, along with the measured difference. With no keyframe set it
// reports false and a difference of 1.
func (g *DiffGate) Similar(im *vision.Image) (bool, float64) {
	if g.key == nil || im == nil {
		return false, 1
	}
	d := vision.MeanAbsDiff(g.key, im)
	return d <= g.cfg.Threshold, d
}

// SetKey installs im as the new keyframe. The pipeline calls SetKey
// whenever a fresh (non-gate) recognition result is produced.
func (g *DiffGate) SetKey(im *vision.Image) {
	if im == nil {
		g.key = nil
		return
	}
	g.key = im.Clone()
}

// HasKey reports whether a keyframe is installed.
func (g *DiffGate) HasKey() bool { return g.key != nil }

// Reset clears the keyframe.
func (g *DiffGate) Reset() { g.key = nil }

// Keyframe is one remembered scene anchor with its recognition result.
type Keyframe struct {
	// Image is the anchor frame.
	Image *vision.Image
	// Label is the recognition result the anchor carries.
	Label string
	// Confidence is the result's confidence.
	Confidence float64
}

// KeyframeLibrary extends the single-keyframe gate to remember the last
// Capacity recognized scenes. A camera panning back to a recently seen
// scene then matches its old keyframe directly — without feature
// extraction or inference — which the single-keyframe gate cannot do.
// KeyframeLibrary is not safe for concurrent use; each pipeline owns
// one.
type KeyframeLibrary struct {
	cfg DiffGateConfig
	// base keeps the configured threshold so SetStrictness scales from
	// the original value, not compounding on itself.
	base   DiffGateConfig
	cap    int
	frames []Keyframe // newest last
}

// NewKeyframeLibrary builds a library of at most capacity keyframes
// matched under cfg's threshold.
func NewKeyframeLibrary(cfg DiffGateConfig, capacity int) (*KeyframeLibrary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("video: keyframe capacity must be positive, got %d", capacity)
	}
	return &KeyframeLibrary{cfg: cfg, base: cfg, cap: capacity}, nil
}

// SetStrictness scales the match threshold to scale× its configured
// value: 1 restores the configured gate, smaller values demand frames
// be more alike before a keyframe's result may be reused. Scales
// outside (0, 1] are ignored. Like every library method, the caller
// synchronizes.
func (l *KeyframeLibrary) SetStrictness(scale float64) {
	if scale <= 0 || scale > 1 {
		return
	}
	l.cfg.Threshold = l.base.Threshold * scale
}

// Len returns the number of stored keyframes.
func (l *KeyframeLibrary) Len() int { return len(l.frames) }

// Match returns the best-matching stored keyframe for im (smallest mean
// absolute difference under the threshold) and whether one qualified.
func (l *KeyframeLibrary) Match(im *vision.Image) (Keyframe, bool) {
	if im == nil {
		return Keyframe{}, false
	}
	best := -1
	bestDiff := l.cfg.Threshold
	for i, kf := range l.frames {
		d := vision.MeanAbsDiff(kf.Image, im)
		if d <= bestDiff {
			best = i
			bestDiff = d
		}
	}
	if best < 0 {
		return Keyframe{}, false
	}
	return l.frames[best], true
}

// Push remembers im with its recognition result, evicting the oldest
// keyframe when full. Any stored keyframe within the match threshold of
// im is displaced — it depicts the same visual scene, and the incoming
// result is fresher evidence. (Keeping a same-scene keyframe with a
// different label would let a stale recognition keep winning matches.)
//
// The stored copy of im reuses the pixel buffer of a displaced or
// evicted keyframe, so a full library pushes without allocating.
// Keyframes returned by earlier Match calls may therefore change under
// a later Push; callers copy the fields they need before pushing.
func (l *KeyframeLibrary) Push(im *vision.Image, label string, confidence float64) {
	if im == nil || label == "" {
		return
	}
	var spare *vision.Image
	kept := l.frames[:0]
	for _, kf := range l.frames {
		if vision.MeanAbsDiff(kf.Image, im) > l.cfg.Threshold {
			kept = append(kept, kf)
		} else if spare == nil {
			spare = kf.Image
		}
	}
	if len(kept) == l.cap {
		// Nothing was displaced: the oldest keyframe makes room.
		spare = kept[0].Image
		kept = kept[:copy(kept, kept[1:])]
	}
	// Clear the vacated tail so dropped keyframes are not kept alive.
	clear(l.frames[len(kept):])
	l.frames = append(kept, Keyframe{Image: copyImage(spare, im), Label: label, Confidence: confidence})
}

// copyImage copies src into dst's pixel buffer, growing it only when
// too small, and returns dst; a nil dst yields a fresh clone. The copy
// equals src.Clone().
func copyImage(dst, src *vision.Image) *vision.Image {
	if dst == nil {
		return src.Clone()
	}
	n := src.W * src.H
	if cap(dst.Pix) < n {
		dst.Pix = make([]float64, n)
	}
	dst.W, dst.H, dst.Pix = src.W, src.H, dst.Pix[:n]
	clear(dst.Pix[copy(dst.Pix, src.Pix):])
	return dst
}

// Reset clears the library.
func (l *KeyframeLibrary) Reset() { l.frames = nil }
