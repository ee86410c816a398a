#include "cnn/execution_plan.h"

#include "cnn/conv_kernels.h"
#include "cnn/conv_layer.h"
#include "cnn/fc_layer.h"
#include "cnn/kernel_tuner.h"

namespace eva2 {

namespace {

/** Arena slot ids: activations ping-pong, the im2col buffer is its
 * own slot so one workspace serves every gemm conv in the plan. */
constexpr i64 kActSlotA = 0;
constexpr i64 kActSlotB = 1;
constexpr i64 kColSlot = 2;

/** Human-readable variant for one compiled step (reports). */
std::string
step_variant(const Layer &layer, ConvKernel kernel,
             GemmVariant conv_variant, bool simd_fc)
{
    if (layer.kind() == LayerKind::kConv) {
        return kernel == ConvKernel::kIm2colGemm
                   ? gemm_variant_name(conv_variant)
                   : "";
    }
    if (layer.kind() == LayerKind::kFc) {
        return simd_fc ? "simd" : "scalar";
    }
    return "";
}

} // namespace

ExecutionPlan::ExecutionPlan(const Network &net, i64 begin, i64 end,
                             Shape in_shape, PlanOptions opts)
    : net_(&net),
      begin_(begin),
      end_(end),
      in_shape_(in_shape),
      out_shape_(in_shape),
      opts_(opts)
{
    require(begin >= 0 && end <= net.num_layers() && begin <= end,
            "execution plan: bad layer range [" + std::to_string(begin) +
                ", " + std::to_string(end) + ") for network " +
                net.name());
    Shape s = in_shape;
    i64 parity = 0;
    for (i64 i = begin; i < end; ++i) {
        const Layer &layer = net.layer(i);
        Step step;
        step.layer = &layer;
        step.layer_index = i;
        step.out_shape = layer.out_shape(s);
        step.out_slot = parity == 0 ? kActSlotA : kActSlotB;
        if (layer.kind() == LayerKind::kConv) {
            step.conv_kernel = opts.conv_kernel;
            if (step.conv_kernel == ConvKernel::kIm2colGemm) {
                const WindowGeometry g = layer.geometry();
                step.col_slot = kColSlot;
                step.col_shape =
                    Shape{1, s.c * g.kernel * g.kernel,
                          im2col_ld(step.out_shape.h * step.out_shape.w)};
                step.conv_variant = exact_gemm_variant();
            }
            if (opts.fuse_conv_relu && i + 1 < end &&
                net.layer(i + 1).kind() == LayerKind::kRelu) {
                // ReLU preserves shape, so the fused step's output
                // shape is the conv's.
                step.fuse_relu = true;
                ++i;
            }
            if (opts.tune &&
                step.conv_kernel == ConvKernel::kIm2colGemm) {
                // After the fuse decision: fusion is part of the
                // tuning key (it changes the kernel's epilogue).
                const WindowGeometry g = layer.geometry();
                step.conv_variant = tune_conv_gemm(
                    ConvGeometry{s.c, step.out_shape.c, g.kernel,
                                 g.stride, g.pad},
                    step.out_shape.h, step.out_shape.w, step.fuse_relu,
                    opts.tune_budget_us);
            }
        } else if (opts.tune && layer.kind() == LayerKind::kFc) {
            step.simd_fc = tune_fc_simd(s.size(), step.out_shape.size(),
                                        opts.tune_budget_us);
        }
        s = step.out_shape;
        parity ^= 1;
        steps_.push_back(step);
    }
    out_shape_ = s;
}

const Tensor &
ExecutionPlan::run(const Tensor &in, ScratchArena &arena) const
{
    // Per-frame hot path: build the failure message only on failure.
    if (in.shape() != in_shape_) {
        throw ConfigError("execution plan: input shape " +
                          in.shape().str() +
                          " does not match compiled shape " +
                          in_shape_.str());
    }
    if (steps_.empty()) {
        return in;
    }
    // If the caller's input *is* the slot the first step would write
    // (e.g. chaining two plans through one arena), shift the
    // ping-pong parity so no step reads the tensor it is writing.
    i64 flip = 0;
    if (arena.peek(steps_.front().out_slot) == &in) {
        flip = 1;
    }
    const Tensor *cur = &in;
    for (const Step &step : steps_) {
        Tensor &out =
            arena.slot(step.out_slot ^ flip, step.out_shape);
        ForwardCtx ctx;
        ctx.out = &out;
        ctx.conv_kernel = step.conv_kernel;
        ctx.conv_variant = step.conv_variant;
        ctx.simd_fc = step.simd_fc;
        ctx.fuse_relu = step.fuse_relu;
        if (step.col_slot >= 0) {
            // Pre-resolved im2col dimensions, so the kernel's own
            // reshape_to is a no-op.
            ctx.scratch =
                &arena.slot(step.col_slot, step.col_shape);
        }
        step.layer->forward_into(*cur, ctx);
        cur = &out;
    }
    return *cur;
}

Tensor
ExecutionPlan::forward(const Tensor &in) const
{
    return run(in, ScratchArena::for_current_thread());
}

BatchedExecutionPlan::BatchedExecutionPlan(const Network &net, i64 begin,
                                           i64 end, Shape in_shape,
                                           i64 max_batch,
                                           PlanOptions opts)
    : net_(&net),
      begin_(begin),
      end_(end),
      in_shape_(in_shape),
      out_shape_(in_shape),
      max_batch_(max_batch),
      opts_(opts)
{
    require(begin >= 0 && end <= net.num_layers() && begin <= end,
            "batched plan: bad layer range [" + std::to_string(begin) +
                ", " + std::to_string(end) + ") for network " +
                net.name());
    require(max_batch >= 1 && max_batch <= kMaxSuffixBatch,
            "batched plan: max_batch must be in [1, " +
                std::to_string(kMaxSuffixBatch) + "], got " +
                std::to_string(max_batch));
    // The step sequence (shapes, kernel selection, conv+ReLU fusion)
    // mirrors ExecutionPlan's compile loop exactly, so a batched run
    // executes the same steps the unbatched plan would.
    Shape s = in_shape;
    i64 parity = 0;
    for (i64 i = begin; i < end; ++i) {
        const Layer &layer = net.layer(i);
        Step step;
        step.layer = &layer;
        step.layer_index = i;
        step.out_shape = layer.out_shape(s);
        step.parity = parity;
        if (layer.kind() == LayerKind::kConv) {
            step.conv_kernel = opts.conv_kernel;
            if (step.conv_kernel == ConvKernel::kIm2colGemm) {
                const WindowGeometry g = layer.geometry();
                step.batched_conv = true;
                step.col_shape =
                    Shape{1, s.c * g.kernel * g.kernel,
                          step.out_shape.h * step.out_shape.w};
                step.conv_variant = exact_gemm_variant();
            }
            if (opts.fuse_conv_relu && i + 1 < end &&
                net.layer(i + 1).kind() == LayerKind::kRelu) {
                step.fuse_relu = true;
                ++i;
            }
            if (opts.tune &&
                step.conv_kernel == ConvKernel::kIm2colGemm) {
                // Same key as the unbatched plan (per-sample shape),
                // so both agree on one variant per layer.
                const WindowGeometry g = layer.geometry();
                step.conv_variant = tune_conv_gemm(
                    ConvGeometry{s.c, step.out_shape.c, g.kernel,
                                 g.stride, g.pad},
                    step.out_shape.h, step.out_shape.w, step.fuse_relu,
                    opts.tune_budget_us);
            }
        } else if (layer.kind() == LayerKind::kFc) {
            step.batched_fc = true;
            if (opts.tune) {
                step.simd_fc = tune_fc_simd(
                    s.size(), step.out_shape.size(),
                    opts.tune_budget_us);
            }
        }
        s = step.out_shape;
        parity ^= 1;
        steps_.push_back(step);
    }
    out_shape_ = s;
}

void
BatchedExecutionPlan::run(const Tensor *const *inputs, i64 n,
                          const Tensor **outs,
                          ScratchArena &arena) const
{
    // Per-batch hot path: build failure messages only on failure.
    if (n < 1 || n > max_batch_) {
        throw ConfigError("batched plan: batch size " +
                          std::to_string(n) + " outside [1, " +
                          std::to_string(max_batch_) + "]");
    }
    for (i64 i = 0; i < n; ++i) {
        if (inputs[i]->shape() != in_shape_) {
            throw ConfigError("batched plan: sample " +
                              std::to_string(i) + " shape " +
                              inputs[i]->shape().str() +
                              " does not match compiled shape " +
                              in_shape_.str());
        }
    }
    if (steps_.empty()) {
        for (i64 i = 0; i < n; ++i) {
            outs[i] = inputs[i];
        }
        return;
    }
    // Per-lane ping-pong parity shift when a caller chains a lane's
    // input through the slot its first step would write (the
    // ExecutionPlan aliasing rule, applied lane by lane).
    const Tensor *cur[kMaxSuffixBatch];
    i64 flip[kMaxSuffixBatch];
    Tensor *louts[kMaxSuffixBatch];
    for (i64 i = 0; i < n; ++i) {
        cur[i] = inputs[i];
        flip[i] =
            arena.peek(lane_slot(i, steps_.front().parity)) == inputs[i]
                ? 1
                : 0;
    }
    for (const Step &step : steps_) {
        for (i64 i = 0; i < n; ++i) {
            louts[i] = &arena.slot(lane_slot(i, step.parity ^ flip[i]),
                                   step.out_shape);
        }
        if (step.batched_conv) {
            const auto *conv =
                static_cast<const ConvLayer *>(step.layer);
            ConvGeometry g;
            g.in_c = conv->in_channels();
            g.out_c = conv->out_channels();
            g.kernel = conv->kernel();
            g.stride = conv->stride();
            g.pad = conv->pad();
            Tensor &col = arena.slot(
                col_slot(), Shape{1, step.col_shape.h,
                                  im2col_ld(n * step.col_shape.w)});
            Tensor &gemm_out = arena.slot(
                gemm_slot(),
                Shape{1, g.out_c, n * step.col_shape.w});
            conv_im2col_gemm_batched(cur, n, g, conv->weights().data(),
                                     conv->biases().data(), louts, col,
                                     gemm_out, step.fuse_relu,
                                     step.conv_variant);
        } else if (step.batched_fc) {
            static_cast<const FcLayer *>(step.layer)->forward_batched(
                cur, n, louts, /*fuse_relu=*/false, step.simd_fc);
        } else {
            for (i64 i = 0; i < n; ++i) {
                ForwardCtx ctx;
                ctx.out = louts[i];
                ctx.conv_kernel = step.conv_kernel;
                ctx.conv_variant = step.conv_variant;
                ctx.simd_fc = step.simd_fc;
                ctx.fuse_relu = step.fuse_relu;
                step.layer->forward_into(*cur[i], ctx);
            }
        }
        for (i64 i = 0; i < n; ++i) {
            cur[i] = louts[i];
        }
    }
    for (i64 i = 0; i < n; ++i) {
        outs[i] = cur[i];
    }
}

std::vector<PlanStepInfo>
ExecutionPlan::describe() const
{
    std::vector<PlanStepInfo> out;
    out.reserve(steps_.size());
    for (const Step &step : steps_) {
        PlanStepInfo info;
        info.layer_index = step.layer_index;
        info.layer = step.layer->name().empty()
                         ? layer_kind_name(step.layer->kind())
                         : step.layer->name();
        info.kernel = step.layer->kind() == LayerKind::kConv
                          ? conv_kernel_name(step.conv_kernel)
                          : layer_kind_name(step.layer->kind());
        info.variant = step_variant(*step.layer, step.conv_kernel,
                                    step.conv_variant, step.simd_fc);
        info.fused_relu = step.fuse_relu;
        info.out = step.out_shape;
        out.push_back(std::move(info));
    }
    return out;
}

} // namespace eva2
