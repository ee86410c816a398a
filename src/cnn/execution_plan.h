/**
 * @file
 * Planned, allocation-free execution of a layer range.
 *
 * Network::forward, the reference, heap-allocates one tensor per
 * layer per call and runs the scalar kernels; at serving rates, with
 * the suffix running on *every* frame (key or predicted — Section II
 * of the paper), that allocation traffic and the scalar GEMM dominate
 * per-frame cost. Compiling a network for a fixed input shape removes
 * both:
 *
 *  - every layer's output shape is resolved once, at compile time;
 *  - each activation is assigned a slot in a caller-supplied
 *    ScratchArena (ping-pong between two slots, since each layer
 *    only reads its immediate predecessor), so steady-state frames
 *    allocate nothing;
 *  - every conv runs the im2col + blocked-GEMM kernel on
 *    exact_gemm_variant() — the bit-exact SIMD register tile wherever
 *    simd_supported(), the scalar reference tile otherwise (see
 *    conv_kernels.h) — and folds a directly following ReLU into its
 *    output write. Both choices are bit-identical to Network::forward;
 *    only `tune` (the `kernel=tuned` spec) trades bit-exactness for a
 *    bounded-divergence fma tile or SIMD FC dot.
 *
 * A plan borrows its Network and is immutable after compilation, so
 * one plan may be shared by any number of threads, each running it
 * against its own arena.
 */
#ifndef EVA2_CNN_EXECUTION_PLAN_H
#define EVA2_CNN_EXECUTION_PLAN_H

#include <string>
#include <vector>

#include "cnn/network.h"
#include "tensor/scratch_arena.h"

namespace eva2 {

/** Compilation knobs for ExecutionPlan. */
struct PlanOptions
{
    /**
     * Autotune kernels per layer shape (the `kernel=tuned` registry
     * spec): at compile time every conv layer's GEMM micro-kernel
     * variant and every FC layer's dot kernel are picked by
     * KernelTuner contests on synthetic data of the real shape,
     * cached process-wide so each shape tunes once. The bit-exact
     * SIMD tile is every conv contest's reference candidate, so an
     * fma winner has to beat it; fma and SIMD FC winners are
     * bounded-divergence vs the scalar reference (fma, tree
     * reductions) — see docs/simd_kernels.md for the verification
     * contract. No-op when SIMD is unsupported on this machine.
     */
    bool tune = false;
    /** Per-contest tuning budget in microseconds (tune only). */
    i64 tune_budget_us = 20000;
};

/** One compiled step, as exposed for reports and tests. */
struct PlanStepInfo
{
    i64 layer_index = 0;  ///< Index in the source network.
    std::string layer;    ///< Layer report name.
    std::string kernel;   ///< Selected kernel name.
    /**
     * Chosen micro-kernel variant: the GEMM register tile for gemm
     * convs ("simd_exact", "scalar", "mr2xnv4", ...), "simd"/"scalar"
     * for FC layers, empty for steps with no variant dimension.
     */
    std::string variant;
    bool fused_relu = false;
    Shape out;            ///< Pre-resolved output shape.
};

/**
 * One compiled step, as both plans store it. Step k of a plan writes
 * ping-pong side k % 2. A conv step also folds a directly following
 * ReLU (fuse_relu).
 */
struct CompiledStep
{
    const Layer *layer = nullptr;
    i64 layer_index = 0;
    Shape out_shape;
    /**
     * GEMM variant of a conv step: exact_gemm_variant() unless
     * opts.tune picks an fma tile. The contest runs on the per-sample
     * shape, so the batched plan reuses the unbatched plan's pick for
     * every batch size.
     */
    GemmVariant conv_variant = GemmVariant::kScalar;
    /** Tuner-picked SIMD FC dot kernel (false unless opts.tune). */
    bool simd_fc = false;
    bool fuse_relu = false;
};

/**
 * The kernel selection of one compiled plan, as reported through the
 * instrumentation hooks (AmcObserver::on_plan) and echoed in the
 * serving API's RunReport.
 */
struct PlanRecord
{
    std::string scope; ///< "prefix", "suffix", or "motion".
    std::vector<PlanStepInfo> steps;
};

/**
 * A layer range of a Network, compiled for one input shape.
 * See the file comment for what compilation buys.
 */
class ExecutionPlan
{
  public:
    /**
     * Compile layers [begin, end) of `net` for inputs of shape
     * `in_shape`. Shape propagation runs here, so an incompatible
     * input shape fails at compile time, not on the first frame.
     * The network is borrowed and must outlive the plan.
     */
    ExecutionPlan(const Network &net, i64 begin, i64 end, Shape in_shape,
                  PlanOptions opts = {});

    /** Compile the whole network at its declared input shape. */
    explicit ExecutionPlan(const Network &net, PlanOptions opts = {})
        : ExecutionPlan(net, 0, net.num_layers(), net.input_shape(),
                        opts)
    {
    }

    /**
     * Execute the plan on `in`, cycling activations through `arena`.
     * Returns a reference to the arena slot holding the final
     * activation (or to `in` itself for an empty range) — valid until
     * the arena is next written. Callers that need the result to
     * outlive the arena copy it.
     *
     * Zero steady-state allocations: once the arena slots have grown
     * to this plan's largest shapes, run() performs no heap
     * allocation. Safe against `in` aliasing an arena slot.
     */
    const Tensor &run(const Tensor &in, ScratchArena &arena) const;

    /**
     * Convenience wrapper over run(): executes against the calling
     * thread's arena and copies the result out.
     */
    Tensor forward(const Tensor &in) const;

    Shape in_shape() const { return in_shape_; }
    Shape out_shape() const { return out_shape_; }
    i64 begin() const { return begin_; }
    i64 end() const { return end_; }
    i64 num_steps() const { return static_cast<i64>(steps_.size()); }
    const PlanOptions &options() const { return opts_; }
    const Network &network() const { return *net_; }

    /** Per-step kernel selection, for reports and tests. */
    std::vector<PlanStepInfo> describe() const;

  private:
    const Network *net_;
    i64 begin_;
    i64 end_;
    Shape in_shape_;
    Shape out_shape_;
    PlanOptions opts_;
    std::vector<CompiledStep> steps_;
};

/**
 * A layer range of a Network, compiled for N same-shape inputs
 * executed in one pass — the cross-stream form of ExecutionPlan.
 *
 * At serving scale the CNN suffix runs on *every* frame of *every*
 * stream (only the prefix is skipped on predicted frames), so its
 * per-sample cost is the number that bounds frames/sec per machine.
 * Executing many streams' suffixes as one batch buys what batch-of-1
 * execution cannot:
 *
 *  - FC layers become matrix-matrix products: each weight row is
 *    streamed from memory once per *batch* instead of once per
 *    sample (FcLayer::forward_batched);
 *  - conv layers number all samples' output pixels as columns of one
 *    im2col matrix, so GEMM strips that a single small late-suffix
 *    plane would leave mostly empty are filled, and the per-tile
 *    weight stream is amortized across the batch
 *    (conv_im2col_gemm_batched);
 *  - pointwise layers run per sample through the same forward_into
 *    bodies the unbatched plan uses.
 *
 * Bit-exactness: every output element of every sample is computed
 * with exactly the accumulation order of the unbatched plan, so each
 * sample's result — and therefore each stream's digest chain — is
 * bit-identical to batch-of-1 execution. Batching is purely an
 * execution-shape knob.
 *
 * Memory: lane activations ping-pong through 2*max_batch arena
 * slots, plus one shared GEMM output slot (conv strips pack their
 * im2col panels in thread-local buffers); after warm-up a run
 * performs zero heap allocations. Like
 * ExecutionPlan, a compiled batched plan is immutable and may be
 * shared by any number of threads, each running against its own
 * arena.
 */
class BatchedExecutionPlan
{
  public:
    /**
     * Compile layers [begin, end) of `net` for up to `max_batch`
     * inputs of shape `in_shape` (1 <= max_batch <= kMaxSuffixBatch).
     * The network is borrowed and must outlive the plan.
     */
    BatchedExecutionPlan(const Network &net, i64 begin, i64 end,
                         Shape in_shape, i64 max_batch,
                         PlanOptions opts = {});

    /** Compile the batched form of an existing single-sample plan. */
    BatchedExecutionPlan(const ExecutionPlan &plan, i64 max_batch)
        : BatchedExecutionPlan(plan.network(), plan.begin(), plan.end(),
                               plan.in_shape(), max_batch,
                               plan.options())
    {
    }

    /**
     * Execute samples inputs[0..n) (1 <= n <= max_batch, all of shape
     * in_shape()) in one pass, cycling activations through `arena`.
     * On return outs[i] points at the arena slot holding sample i's
     * final activation (or at inputs[i] for an empty range) — valid
     * until the arena is next written.
     *
     * Aliasing: the ExecutionPlan rule, applied lane by lane —
     * inputs[i] may be lane i's *own* previous output (chaining two
     * batched runs through one arena shifts that lane's ping-pong
     * parity). Inputs must not alias a *different* lane's slots or
     * the shared GEMM slot; callers that permute lane order
     * between chained runs copy instead.
     *
     * Zero steady-state allocations once the arena has grown to this
     * plan's largest shapes.
     */
    void run(const Tensor *const *inputs, i64 n, const Tensor **outs,
             ScratchArena &arena) const;

    Shape in_shape() const { return in_shape_; }
    Shape out_shape() const { return out_shape_; }
    i64 begin() const { return begin_; }
    i64 end() const { return end_; }
    i64 max_batch() const { return max_batch_; }
    i64 num_steps() const { return static_cast<i64>(steps_.size()); }
    const PlanOptions &options() const { return opts_; }
    const Network &network() const { return *net_; }

  private:
    /** Arena slot of lane `lane`'s ping-pong side `parity`. */
    i64
    lane_slot(i64 lane, i64 parity) const
    {
        return lane * 2 + parity;
    }

    i64 gemm_slot() const { return max_batch_ * 2; }

    const Network *net_;
    i64 begin_;
    i64 end_;
    Shape in_shape_;
    Shape out_shape_;
    i64 max_batch_;
    PlanOptions opts_;
    std::vector<CompiledStep> steps_;
};

} // namespace eva2

#endif // EVA2_CNN_EXECUTION_PLAN_H
