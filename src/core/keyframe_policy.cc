#include "core/keyframe_policy.h"

namespace eva2 {

StaticRatePolicy::StaticRatePolicy(i64 interval) : interval_(interval)
{
    require(interval >= 1, "static policy: interval must be >= 1");
}

bool
StaticRatePolicy::is_key_frame(const FrameFeatures &features)
{
    return schedule(features.frames_since_key) == FrameSchedule::kKey;
}

FrameSchedule
StaticRatePolicy::schedule(i64 frames_since_key) const
{
    return frames_since_key >= interval_ ? FrameSchedule::kKey
                                         : FrameSchedule::kPredict;
}

std::string
StaticRatePolicy::name() const
{
    return "static(" + std::to_string(interval_) + ")";
}

BlockErrorPolicy::BlockErrorPolicy(double threshold, i64 max_gap)
    : threshold_(threshold), max_gap_(max_gap)
{
    require(threshold >= 0.0, "block error policy: negative threshold");
}

bool
BlockErrorPolicy::is_key_frame(const FrameFeatures &features)
{
    return schedule(features.frames_since_key) == FrameSchedule::kKey ||
           features.match_error > threshold_;
}

FrameSchedule
BlockErrorPolicy::schedule(i64 frames_since_key) const
{
    return max_gap_ > 0 && frames_since_key >= max_gap_
               ? FrameSchedule::kKey
               : FrameSchedule::kNeedFeatures;
}

std::string
BlockErrorPolicy::name() const
{
    return "block-error(" + std::to_string(threshold_) + ")";
}

MotionMagnitudePolicy::MotionMagnitudePolicy(double threshold, i64 max_gap)
    : threshold_(threshold), max_gap_(max_gap)
{
    require(threshold >= 0.0, "motion policy: negative threshold");
}

bool
MotionMagnitudePolicy::is_key_frame(const FrameFeatures &features)
{
    return schedule(features.frames_since_key) == FrameSchedule::kKey ||
           features.motion_magnitude > threshold_;
}

FrameSchedule
MotionMagnitudePolicy::schedule(i64 frames_since_key) const
{
    return max_gap_ > 0 && frames_since_key >= max_gap_
               ? FrameSchedule::kKey
               : FrameSchedule::kNeedFeatures;
}

std::string
MotionMagnitudePolicy::name() const
{
    return "motion-magnitude(" + std::to_string(threshold_) + ")";
}

} // namespace eva2
