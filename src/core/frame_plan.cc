#include "core/frame_plan.h"

#include <algorithm>
#include <cmath>

#include "simd/simd_kernels.h"
#include "tensor/tensor_ops.h"

namespace eva2 {

void
AmcOptions::validate(const Network &net) const
{
    require(search_radius > 0,
            "AmcOptions: search_radius must be > 0, got " +
                std::to_string(search_radius));
    require(search_stride > 0,
            "AmcOptions: search_stride must be > 0, got " +
                std::to_string(search_stride));
    require(search_stride <= search_radius,
            "AmcOptions: search_stride (" +
                std::to_string(search_stride) +
                ") must not exceed search_radius (" +
                std::to_string(search_radius) + ")");
    require(storage_prune_rel >= 0.0,
            "AmcOptions: storage_prune_rel must be >= 0, got " +
                std::to_string(storage_prune_rel));
    if (target_choice == TargetChoice::kExplicit) {
        require(explicit_target >= 0 &&
                    explicit_target < net.num_layers(),
                "AmcOptions: explicit_target " +
                    std::to_string(explicit_target) +
                    " out of range for network " + net.name() +
                    " with " + std::to_string(net.num_layers()) +
                    " layers");
        require(explicit_target <= net.last_spatial_index(),
                "AmcOptions: explicit_target " +
                    std::to_string(explicit_target) +
                    " is past the last spatial layer (" +
                    std::to_string(net.last_spatial_index()) +
                    ") of network " + net.name() +
                    "; AMC can only warp spatial activations");
    }
}

i64
FramePlan::resolve_target(const Network &net, TargetChoice choice,
                          i64 explicit_target)
{
    switch (choice) {
      case TargetChoice::kLastSpatial:
        return net.default_target_index();
      case TargetChoice::kEarly: {
        const i64 pool = net.first_pool_index();
        require(pool >= 0,
                "network " + net.name() + " has no pooling layer for an "
                "early target");
        return pool;
      }
      case TargetChoice::kExplicit:
        require(explicit_target >= 0 &&
                    explicit_target < net.num_layers(),
                "explicit target out of range");
        return explicit_target;
    }
    throw InternalError("unreachable target choice");
}

FramePlan::FramePlan(const Network &net,
                     std::unique_ptr<KeyFramePolicy> policy,
                     AmcOptions opts)
    : net_(&net),
      policy_(std::move(policy)),
      opts_(opts),
      target_layer_((opts.validate(net),
                     resolve_target(net, opts.target_choice,
                                    opts.explicit_target)))
{
    if (!policy_) {
        policy_ = std::make_unique<StaticRatePolicy>(1);
    }
    // Compile both layer ranges once: shapes resolved, arena slots
    // assigned, kernels selected. The suffix runs on every frame, so
    // this is where planned execution pays off.
    prefix_plan_ = std::make_unique<ExecutionPlan>(
        net, 0, target_layer_ + 1, net.input_shape(), opts_.plan);
    suffix_plan_ = std::make_unique<ExecutionPlan>(
        net, target_layer_ + 1, net.num_layers(),
        prefix_plan_->out_shape(), opts_.plan);
    slot_ring_.ensure_slots(depth_);
    slot_alias_.resize(static_cast<size_t>(depth_));
    target_rf_ = net.receptive_field_at(target_layer_);
    rfbme_config_.rf_size = target_rf_.size;
    rfbme_config_.rf_stride = target_rf_.stride;
    rfbme_config_.rf_pad = target_rf_.pad;
    rfbme_config_.search_radius = opts.search_radius;
    rfbme_config_.search_stride = opts.search_stride;
    // The SIMD diff-tile producer sums the same integers as the
    // scalar oracle and CI holds it at >= 2x scalar, so it runs
    // wherever the CPU has it.
    rfbme_config_.variant = simd_supported() ? RfbmeVariant::kSimd
                                             : RfbmeVariant::kScalar;
}

std::vector<PlanRecord>
FramePlan::plan_records() const
{
    // The motion front end reports its compiled kernel choice like
    // the CNN steps do: one step whose kernel names the diff-tile
    // width and whose variant is the tile producer in use.
    const Shape in = net_->input_shape();
    PlanStepInfo me;
    me.layer_index = -1;
    me.layer = "rfbme";
    me.kernel = "rfbme_tile/" +
                std::to_string(rfbme_config_.rf_stride) + "x" +
                std::to_string(rfbme_config_.rf_stride);
    me.variant = rfbme_variant_name(rfbme_config_.variant);
    me.fused_relu = false;
    me.out = Shape{2, rfbme_out_size(in.h, rfbme_config_),
                   rfbme_out_size(in.w, rfbme_config_)};
    return {PlanRecord{"prefix", prefix_plan_->describe()},
            PlanRecord{"suffix", suffix_plan_->describe()},
            PlanRecord{"motion", {me}}};
}

void
FramePlan::set_depth(i64 depth)
{
    require(depth >= 1, "FramePlan: depth must be >= 1, got " +
                            std::to_string(depth));
    depth_ = depth;
    // Create the whole ring now: a front creating slot tensors while
    // another frame's suffix reads its own slot must not grow (and
    // possibly reallocate) the slot vector under the reader. The
    // alias array follows the same rule for the same reason.
    slot_ring_.ensure_slots(depth_);
    if (static_cast<i64>(slot_alias_.size()) < depth_) {
        slot_alias_.resize(static_cast<size_t>(depth_));
    }
}

void
FramePlan::check_slot(i64 slot) const
{
    // Per-frame hot path: no message construction on success.
    if (slot < 0 || slot >= depth_) {
        throw ConfigError("FramePlan: slot " + std::to_string(slot) +
                          " outside the depth-" +
                          std::to_string(depth_) + " ring");
    }
}

Tensor &
FramePlan::slot_tensor(i64 slot, const Shape &shape)
{
    check_slot(slot);
    return slot_ring_.slot(slot, shape);
}

const Tensor &
FramePlan::slot_activation(i64 slot) const
{
    check_slot(slot);
    // Memoization predictions alias the shared key activation rather
    // than copying it into the slot; the alias overrides the ring.
    const std::shared_ptr<const Tensor> &alias =
        slot_alias_[static_cast<size_t>(slot)];
    if (alias) {
        return *alias;
    }
    const Tensor *t = slot_ring_.peek(slot);
    require(t != nullptr && !t->empty(),
            "FramePlan: slot " + std::to_string(slot) +
                " has no activation (no front half ran)");
    return *t;
}

void
FramePlan::release_workspaces()
{
    // Sized for the previous stream's geometry; a reset or hibernated
    // session must actually return this memory, not keep workspaces
    // grown for a stream it may never see again. Slot buffers release
    // while the slot tensors (and the addresses readers hold) stay.
    me_ = RfbmeResult();
    me_ws_ = RfbmeWorkspace();
    fitted_field_ = MotionField();
    slot_ring_.release_slots();
}

void
FramePlan::reset()
{
    has_key_ = false;
    key_pixels_ = PixelPlane();
    key_activation_dense_ = Tensor();
    key_activation_rle_ = RleActivation();
    key_act_shared_.reset();
    for (auto &alias : slot_alias_) {
        alias.reset();
    }
    stored_cache_ = Tensor();
    stored_cache_valid_ = false;
    hibernated_ = false;
    frames_since_key_ = 0;
    stats_ = AmcStats();
    policy_->reset();
    release_workspaces();
}

const Tensor &
FramePlan::stored_activation() const
{
    require(has_key_, "no key frame has been processed yet");
    if (opts_.motion_mode == MotionMode::kMemoization &&
        key_act_shared_) {
        return *key_act_shared_;
    }
    if (!opts_.quantize_storage) {
        return key_activation_dense_;
    }
    // Quantized storage keeps only the RLE form resident; decode
    // lazily for the (cold) accessor paths — reports, tests, the
    // pipeline conveniences — and cache until the next key frame.
    if (!stored_cache_valid_) {
        stored_cache_ = rle_decode(key_activation_rle_);
        stored_cache_valid_ = true;
    }
    return stored_cache_;
}

const PixelPlane &
FramePlan::key_pixels() const
{
    require(has_key_, "no key frame has been processed yet");
    return key_pixels_;
}

i64
FramePlan::stored_activation_bytes() const
{
    require(has_key_, "no key frame has been processed yet");
    return key_activation_rle_.encoded_bytes();
}

void
FramePlan::hibernate()
{
    require(opts_.quantize_storage,
            "hibernate: requires quantized (RLE) key-activation "
            "storage; the precise dense activation of codec=dense "
            "cannot be recovered from the compressed form");
    if (hibernated_) {
        return;
    }
    // The u8 key pixels stay as they are: they are already the
    // compact form RFBME reads, so hibernation loses nothing there.
    key_activation_dense_ = Tensor();
    key_act_shared_.reset();
    for (auto &alias : slot_alias_) {
        alias.reset();
    }
    stored_cache_ = Tensor();
    stored_cache_valid_ = false;
    release_workspaces();
    hibernated_ = true;
}

void
FramePlan::hydrate()
{
    if (!hibernated_) {
        return;
    }
    if (has_key_ && opts_.motion_mode == MotionMode::kMemoization) {
        key_act_shared_ = std::make_shared<const Tensor>(
            rle_decode(key_activation_rle_));
    }
    hibernated_ = false;
}

i64
FramePlan::resident_bytes() const
{
    i64 bytes = key_activation_rle_.encoded_bytes();
    bytes += static_cast<i64>(key_pixels_.pixels.size());
    bytes +=
        key_activation_dense_.size() * static_cast<i64>(sizeof(float));
    if (key_act_shared_) {
        bytes +=
            key_act_shared_->size() * static_cast<i64>(sizeof(float));
    }
    if (stored_cache_valid_) {
        bytes += stored_cache_.size() * static_cast<i64>(sizeof(float));
    }
    bytes += static_cast<i64>(slot_ring_.bytes_reserved());
    const auto field_bytes = [](const MotionField &f) {
        return f.height() * f.width() * static_cast<i64>(sizeof(Vec2));
    };
    bytes += field_bytes(fitted_field_) + field_bytes(me_.field);
    bytes += static_cast<i64>(me_.rf_errors.size() * sizeof(double));
    bytes += me_ws_.bytes();
    return bytes;
}

void
FramePlan::ingest_stage(const Tensor &frame, AmcObserver *obs) const
{
    StageScope timer(obs, AmcStage::kIngest);
    // Per-frame hot path: no message construction on success.
    if (frame.shape() != net_->input_shape()) {
        throw ConfigError("frame shape " + frame.shape().str() +
                          " does not match network input " +
                          net_->input_shape().str());
    }
}

void
FramePlan::motion_stage(const Tensor &frame, AmcObserver *obs)
{
    StageScope timer(obs, AmcStage::kMotionEstimation);
    rfbme_into(key_pixels_, frame, rfbme_config_, me_, me_ws_);
}

FrontResult
FramePlan::key_stage(const Tensor &frame, i64 slot,
                     ScratchArena &exec_arena, AmcObserver *obs)
{
    FrontResult result;
    result.is_key = true;
    Tensor &stored = slot_tensor(slot, prefix_plan_->out_shape());
    {
        StageScope timer(obs, AmcStage::kPrefix);
        // Copied out of the execution arena into the stream's slot
        // ring: the target activation outlives the prefix (the suffix
        // may run it on another thread) and feeds key-frame storage.
        const Tensor &target = prefix_plan_->run(frame, exec_arena);
        stored.reshape_to(target.shape());
        std::copy(target.data().begin(), target.data().end(),
                  stored.data().begin());
    }

    // Store pixels and the target activation the way the hardware
    // does: u8 pixels in the key pixel buffer (quantized once, here),
    // the activation run-length encoded in the key frame activation
    // buffer.
    quantize_frame(frame, key_pixels_);
    {
        StageScope timer(obs, AmcStage::kEncode);
        RleParams rle_params;
        if (opts_.storage_prune_rel > 0.0) {
            const double rms = std::sqrt(
                sum_squares(stored) /
                static_cast<double>(stored.size()));
            rle_params.zero_threshold =
                static_cast<float>(opts_.storage_prune_rel * rms);
        }
        key_activation_rle_ = rle_encode(stored, rle_params);
        stored_cache_valid_ = false;
        // Key frames are full, precise executions (Section II-A); the
        // quantized RLE copy is only consumed by later predicted
        // frames, so the slot keeps the precise activation. Under
        // quantized storage the RLE form *is* the resident store —
        // predictions warp it directly — and only the consumers that
        // need a dense tensor get one:
        if (opts_.motion_mode == MotionMode::kMemoization) {
            // One shared decoded copy per key frame; every predicted
            // frame aliases it instead of copying (slot_alias_).
            key_act_shared_ = std::make_shared<const Tensor>(
                opts_.quantize_storage
                    ? rle_decode(key_activation_rle_)
                    : stored);
        } else if (!opts_.quantize_storage) {
            key_activation_dense_.reshape_to(stored.shape());
            std::copy(stored.data().begin(), stored.data().end(),
                      key_activation_dense_.data().begin());
        }
    }
    slot_alias_[static_cast<size_t>(slot)].reset();
    has_key_ = true;
    frames_since_key_ = 0;
    ++stats_.frames;
    ++stats_.key_frames;
    return result;
}

FrontResult
FramePlan::predict_stage(i64 slot, AmcObserver *obs)
{
    FrontResult result;
    result.is_key = false;
    if (opts_.motion_mode == MotionMode::kMemoization) {
        // Alias the shared key activation: a refcount bump replaces
        // the former dense copy of the whole tensor into the slot.
        StageScope timer(obs, AmcStage::kWarp);
        check_slot(slot);
        slot_alias_[static_cast<size_t>(slot)] = key_act_shared_;
    } else if (opts_.quantize_storage) {
        // Sparse-direct: warp straight from the resident RLE form.
        const Shape shape = key_activation_rle_.shape;
        Tensor &predicted = slot_tensor(slot, shape);
        {
            StageScope timer(obs, AmcStage::kMotionField);
            fit_field_into(me_.field, shape.h, shape.w, fitted_field_);
        }
        {
            StageScope timer(obs, AmcStage::kWarp);
            warp_activation_rle_into(key_activation_rle_,
                                     fitted_field_, target_rf_.stride,
                                     opts_.interp, predicted);
        }
    } else {
        Tensor &predicted =
            slot_tensor(slot, key_activation_dense_.shape());
        {
            StageScope timer(obs, AmcStage::kMotionField);
            fit_field_into(me_.field, key_activation_dense_.height(),
                           key_activation_dense_.width(),
                           fitted_field_);
        }
        {
            StageScope timer(obs, AmcStage::kWarp);
            warp_activation_into(key_activation_dense_, fitted_field_,
                                 target_rf_.stride, opts_.interp,
                                 predicted);
        }
    }
    ++stats_.frames;
    return result;
}

FrontResult
FramePlan::run_front(const Tensor &frame, i64 slot,
                     ScratchArena &exec_arena, AmcObserver *obs)
{
    ingest_stage(frame, obs);
    if (!has_key_) {
        // First frame of a stream: always a key frame, no motion
        // estimation to run and no policy consulted.
        FrontResult result = key_stage(frame, slot, exec_arena, obs);
        result.resident_bytes = resident_bytes();
        return result;
    }
    ++frames_since_key_;
    // Motion estimation runs only when its result is read: by a
    // policy that needs features, or by the compensation warp.
    // Scheduled keys and scheduled memoized predictions skip it (and
    // the policy) and report zero features and add ops.
    const FrameSchedule schedule = policy_->schedule(frames_since_key_);
    const bool run_me =
        schedule == FrameSchedule::kNeedFeatures ||
        (schedule == FrameSchedule::kPredict &&
         opts_.motion_mode == MotionMode::kCompensation);
    FrameFeatures features;
    features.frames_since_key = frames_since_key_;
    if (run_me) {
        motion_stage(frame, obs);
        features.match_error = me_.mean_error;
        features.motion_magnitude = me_.field.total_magnitude();
    }
    bool is_key = schedule == FrameSchedule::kKey;
    if (schedule == FrameSchedule::kNeedFeatures) {
        StageScope timer(obs, AmcStage::kPolicy);
        is_key = policy_->is_key_frame(features);
    }
    FrontResult result = is_key ? key_stage(frame, slot, exec_arena, obs)
                                : predict_stage(slot, obs);
    result.features = features;
    result.me_add_ops = run_me ? me_.add_ops : 0;
    result.resident_bytes = resident_bytes();
    return result;
}

FrontResult
FramePlan::run_front_key(const Tensor &frame, i64 slot,
                         ScratchArena &exec_arena, AmcObserver *obs)
{
    ingest_stage(frame, obs);
    FrontResult result = key_stage(frame, slot, exec_arena, obs);
    result.resident_bytes = resident_bytes();
    return result;
}

FrontResult
FramePlan::run_front_predicted(const Tensor &frame, i64 slot,
                               ScratchArena &exec_arena,
                               AmcObserver *obs)
{
    (void)exec_arena;
    require(has_key_, "run_predicted: no stored key frame");
    ingest_stage(frame, obs);
    ++frames_since_key_;
    motion_stage(frame, obs);
    FrontResult result = predict_stage(slot, obs);
    result.features.match_error = me_.mean_error;
    result.features.motion_magnitude = me_.field.total_magnitude();
    result.features.frames_since_key = frames_since_key_;
    result.me_add_ops = me_.add_ops;
    result.resident_bytes = resident_bytes();
    return result;
}

const Tensor &
FramePlan::run_suffix(i64 slot, ScratchArena &exec_arena,
                      AmcObserver *obs) const
{
    const Tensor &in = slot_activation(slot);
    StageScope timer(obs, AmcStage::kSuffix);
    return suffix_plan_->run(in, exec_arena);
}

} // namespace eva2
