/**
 * @file
 * Key-frame selection policies (Section II-C4).
 *
 * The key-frame decision is AMC's accuracy/efficiency knob. The paper
 * implements a static rate plus two adaptive features measurable from
 * the motion-estimation pass EVA2 runs anyway: aggregate block match
 * error (chosen for the hardware, since it is a free byproduct of
 * RFBME) and total motion magnitude. Section IV-E5 sweeps both.
 *
 * Some decisions need no features at all: a static rate, or an
 * adaptive policy whose max-gap cap is due. schedule() states those
 * ahead of time, so the frame path can skip a motion-estimation pass
 * whose result nothing would read.
 */
#ifndef EVA2_CORE_KEYFRAME_POLICY_H
#define EVA2_CORE_KEYFRAME_POLICY_H

#include <memory>
#include <string>

#include "util/common.h"

namespace eva2 {

/** Scene features available when deciding a frame's type. */
struct FrameFeatures
{
    /** Mean per-receptive-field minimum match error from RFBME. */
    double match_error = 0.0;
    /** Total motion-vector magnitude from RFBME. */
    double motion_magnitude = 0.0;
    /** Frames since the last key frame (>= 1 for candidates). */
    i64 frames_since_key = 0;
};

/** A frame's type as known before motion estimation runs. */
enum class FrameSchedule
{
    kKey,          ///< Key frame, whatever the features.
    kPredict,      ///< Predicted frame, whatever the features.
    kNeedFeatures, ///< The decision reads the RFBME features.
};

/** Decides whether each incoming frame is a key frame. */
class KeyFramePolicy
{
  public:
    virtual ~KeyFramePolicy() = default;

    /**
     * Decide the type of the next frame. The very first frame of a
     * stream is always a key frame; the pipeline does not consult the
     * policy for it.
     */
    virtual bool is_key_frame(const FrameFeatures &features) = 0;

    /**
     * The next frame's type if `frames_since_key` alone decides it.
     * kKey must mean is_key_frame() would return true for every
     * features value with that frames_since_key, and kPredict false;
     * the pipeline then skips motion estimation where nothing else
     * reads it and does not call is_key_frame() for that frame. The
     * default, kNeedFeatures, always consults is_key_frame().
     */
    virtual FrameSchedule
    schedule(i64 /* frames_since_key */) const
    {
        return FrameSchedule::kNeedFeatures;
    }

    /** Reset internal state for a new stream. */
    virtual void reset() {}

    /** Policy name for reports. */
    virtual std::string name() const = 0;
};

/** Every nth frame is a key frame. */
class StaticRatePolicy : public KeyFramePolicy
{
  public:
    /** @param interval Key frame every `interval` frames (>= 1). */
    explicit StaticRatePolicy(i64 interval);

    bool is_key_frame(const FrameFeatures &features) override;
    FrameSchedule schedule(i64 frames_since_key) const override;
    std::string name() const override;

    i64 interval() const { return interval_; }

  private:
    i64 interval_;
};

/**
 * Adaptive policy on RFBME match error: a high aggregate error means
 * motion estimation failed to explain the scene change (occlusion,
 * lighting, new content), so run a key frame.
 */
class BlockErrorPolicy : public KeyFramePolicy
{
  public:
    /**
     * @param threshold Mean match error above which a key frame runs.
     * @param max_gap   Force a key frame after this many predictions
     *                  (0 disables the cap).
     */
    explicit BlockErrorPolicy(double threshold, i64 max_gap = 0);

    bool is_key_frame(const FrameFeatures &features) override;
    FrameSchedule schedule(i64 frames_since_key) const override;
    std::string name() const override;

  private:
    double threshold_;
    i64 max_gap_;
};

/**
 * Adaptive policy on total motion magnitude: large total motion means
 * predictions are less reliable (Section II-C4's second feature).
 */
class MotionMagnitudePolicy : public KeyFramePolicy
{
  public:
    explicit MotionMagnitudePolicy(double threshold, i64 max_gap = 0);

    bool is_key_frame(const FrameFeatures &features) override;
    FrameSchedule schedule(i64 frames_since_key) const override;
    std::string name() const override;

  private:
    double threshold_;
    i64 max_gap_;
};

} // namespace eva2

#endif // EVA2_CORE_KEYFRAME_POLICY_H
