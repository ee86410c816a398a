#include "cnn/execution_plan.h"

#include "cnn/conv_kernels.h"
#include "cnn/conv_layer.h"
#include "cnn/fc_layer.h"

namespace eva2 {

namespace {

/**
 * Compile layers [begin, end) of `net` for inputs of `in_shape`: the
 * step sequence both plans execute. Every conv runs the im2col GEMM on
 * exact_gemm_variant() and absorbs a directly following ReLU.
 */
std::vector<CompiledStep>
compile_steps(const Network &net, i64 begin, i64 end, Shape in_shape,
              const char *what)
{
    require(begin >= 0 && end <= net.num_layers() && begin <= end,
            std::string(what) + ": bad layer range [" +
                std::to_string(begin) + ", " + std::to_string(end) +
                ") for network " + net.name());
    std::vector<CompiledStep> steps;
    Shape s = in_shape;
    for (i64 i = begin; i < end; ++i) {
        const Layer &layer = net.layer(i);
        CompiledStep step;
        step.layer = &layer;
        step.layer_index = i;
        step.out_shape = layer.out_shape(s);
        if (layer.kind() == LayerKind::kConv) {
            step.conv_variant = exact_gemm_variant();
            if (i + 1 < end &&
                net.layer(i + 1).kind() == LayerKind::kRelu) {
                // ReLU preserves shape, so the fused step's output
                // shape is the conv's.
                step.fuse_relu = true;
                ++i;
            }
        }
        s = step.out_shape;
        steps.push_back(step);
    }
    return steps;
}

/** The ForwardCtx one compiled step runs its layer under. */
ForwardCtx
step_ctx(const CompiledStep &step, Tensor *out)
{
    ForwardCtx ctx;
    ctx.out = out;
    ctx.conv_variant = step.conv_variant;
    ctx.fuse_relu = step.fuse_relu;
    return ctx;
}

} // namespace

ExecutionPlan::ExecutionPlan(const Network &net, i64 begin, i64 end,
                             Shape in_shape, PlanOptions opts)
    : net_(&net),
      begin_(begin),
      end_(end),
      in_shape_(in_shape),
      out_shape_(in_shape),
      opts_(opts),
      steps_(compile_steps(net, begin, end, in_shape, "execution plan"))
{
    if (!steps_.empty()) {
        out_shape_ = steps_.back().out_shape;
    }
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
    const i64 flip = arena.peek(0) == &in ? 1 : 0;
    const Tensor *cur = &in;
    for (size_t k = 0; k < steps_.size(); ++k) {
        const CompiledStep &step = steps_[k];
        Tensor &out = arena.slot(static_cast<i64>(k & 1) ^ flip,
                                 step.out_shape);
        step.layer->forward_into(*cur, step_ctx(step, &out));
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
      opts_(opts),
      // The same steps ExecutionPlan compiles, so a batched run
      // executes exactly what the unbatched plan would.
      steps_(compile_steps(net, begin, end, in_shape, "batched plan"))
{
    require(max_batch >= 1 && max_batch <= kMaxSuffixBatch,
            "batched plan: max_batch must be in [1, " +
                std::to_string(kMaxSuffixBatch) + "], got " +
                std::to_string(max_batch));
    if (!steps_.empty()) {
        out_shape_ = steps_.back().out_shape;
    }
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
        flip[i] = arena.peek(lane_slot(i, 0)) == inputs[i] ? 1 : 0;
    }
    for (size_t k = 0; k < steps_.size(); ++k) {
        const CompiledStep &step = steps_[k];
        const i64 parity = static_cast<i64>(k & 1);
        for (i64 i = 0; i < n; ++i) {
            louts[i] = &arena.slot(lane_slot(i, parity ^ flip[i]),
                                   step.out_shape);
        }
        const LayerKind kind = step.layer->kind();
        if (kind == LayerKind::kConv) {
            const auto *conv =
                static_cast<const ConvLayer *>(step.layer);
            const ConvGeometry g{conv->in_channels(),
                                 conv->out_channels(), conv->kernel(),
                                 conv->stride(), conv->pad()};
            Tensor &gemm_out = arena.slot(
                gemm_slot(),
                Shape{1, g.out_c,
                      n * step.out_shape.h * step.out_shape.w});
            conv_im2col_gemm_batched(cur, n, g, conv->weights().data(),
                                     conv->biases().data(), louts,
                                     gemm_out, step.fuse_relu,
                                     step.conv_variant);
        } else if (kind == LayerKind::kFc) {
            static_cast<const FcLayer *>(step.layer)->forward_batched(
                cur, n, louts, /*fuse_relu=*/false);
        } else {
            for (i64 i = 0; i < n; ++i) {
                step.layer->forward_into(
                    *cur[i], step_ctx(step, louts[i]));
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
    for (const CompiledStep &step : steps_) {
        const LayerKind kind = step.layer->kind();
        PlanStepInfo info;
        info.layer_index = step.layer_index;
        info.layer = step.layer->name().empty() ? layer_kind_name(kind)
                                                : step.layer->name();
        info.kernel =
            kind == LayerKind::kConv ? "im2col_gemm" : layer_kind_name(kind);
        if (kind == LayerKind::kConv) {
            info.variant = gemm_variant_name(step.conv_variant);
        } else if (kind == LayerKind::kFc) {
            info.variant = "scalar";
        }
        info.fused_relu = step.fuse_relu;
        info.out = step.out_shape;
        out.push_back(std::move(info));
    }
    return out;
}

} // namespace eva2
