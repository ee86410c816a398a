/**
 * @file
 * The abstract CNN layer interface.
 *
 * A layer executes through one virtual entry point, forward_into,
 * which writes into caller-owned storage under a ForwardCtx that
 * selects the kernel. Every executor drives it: the reference
 * Network::forward (default contexts, one fresh tensor per layer), the
 * compiled ExecutionPlan (arena slots, the plan's kernel choices) and
 * the batched suffix plan's per-sample steps.
 *
 * AMC (Section II of the paper) depends on three per-layer properties
 * beyond forward execution: the layer's window geometry (kernel,
 * stride, padding) for receptive-field propagation, whether the layer
 * is *spatial* (its output has a 2D relationship with the input, so
 * activation warping is meaningful), and its multiply-accumulate count
 * for the first-order hardware cost model (Section IV-A).
 */
#ifndef EVA2_CNN_LAYER_H
#define EVA2_CNN_LAYER_H

#include <memory>
#include <string>

#include "simd/simd_kernels.h"
#include "tensor/tensor.h"

namespace eva2 {

/** The layer varieties the reproduction models. */
enum class LayerKind
{
    kConv,    ///< 2D convolution (spatial).
    kPool,    ///< Max pooling (spatial).
    kRelu,    ///< Rectified linear unit (spatial, pointwise).
    kLrn,     ///< Local response normalization (spatial, pointwise).
    kFc,      ///< Fully connected (non-spatial).
    kSoftmax, ///< Softmax over a flat vector (non-spatial).
};

/** Printable name of a layer kind. */
const char *layer_kind_name(LayerKind kind);

/**
 * Window geometry of a spatial layer, used by receptive-field
 * propagation. Pointwise layers use kernel = stride = 1, pad = 0.
 */
struct WindowGeometry
{
    i64 kernel = 1;
    i64 stride = 1;
    i64 pad = 0;
};

/**
 * Hard upper bound on batched layer execution (the cross-stream
 * suffix batch size of BatchedExecutionPlan and the batched layer
 * kernels it drives). It exists so batched runs can keep their
 * per-lane bookkeeping on the stack (no per-call allocation) and is
 * far above any useful batch — past ~16 the marginal weight-reuse
 * win is gone while batch-formation latency keeps growing.
 */
constexpr i64 kMaxSuffixBatch = 64;

/**
 * Execution context of Layer::forward_into. The destination is owned
 * by the caller — in planned execution, a per-worker ScratchArena
 * slot — so the layer writes in place instead of returning a fresh
 * tensor. A default-constructed context (plus `out`) selects the
 * reference kernels: the scalar GEMM conv tile and no fused ReLU.
 */
struct ForwardCtx
{
    /** Destination, already shaped to out_shape(in.shape()). */
    Tensor *out = nullptr;
    /**
     * Fold the following ReLU into this layer (plans set this when
     * they elide the ReLU step): the kernel writes max(acc, 0).
     */
    bool fuse_relu = false;
    /**
     * GEMM micro-kernel variant for the im2col conv. kScalar is the
     * reference tile and kExact its bit-identical SIMD form (what the
     * plans run wherever simd_supported(), which kExact requires).
     */
    GemmVariant conv_variant = GemmVariant::kScalar;
};

/**
 * Abstract base class for all layers. Layers are stateless with
 * respect to execution: forward_into() is const and may be called
 * from multiple frames/pipelines concurrently.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Run the layer on one input activation into caller-owned storage
     * (see ForwardCtx): the layer's only execution entry point. It
     * overwrites *ctx.out, which is already shaped to
     * out_shape(in.shape()), without allocating. `in` and `*ctx.out`
     * must not alias.
     */
    virtual void forward_into(const Tensor &in,
                              const ForwardCtx &ctx) const = 0;

    /** Output shape for a given input shape (without executing). */
    virtual Shape out_shape(const Shape &in) const = 0;

    /** The layer's kind tag. */
    virtual LayerKind kind() const = 0;

    /**
     * Number of multiply-accumulate operations to process one input
     * of the given shape. Pointwise layers return 0: the paper's
     * first-order model (Section IV-A) counts only conv and FC MACs,
     * which dominate.
     */
    virtual i64 macs(const Shape & /* in */) const { return 0; }

    /**
     * Whether the output preserves a 2D spatial relationship with the
     * input, i.e. whether activation warping can pass through this
     * layer. FC and softmax layers are non-spatial and must stay in
     * the CNN suffix (Section II-C5).
     */
    virtual bool spatial() const { return true; }

    /** Window geometry for receptive-field propagation. */
    virtual WindowGeometry geometry() const { return {}; }

    /** Layer name used in reports ("conv3_1", "fc6", ...). */
    const std::string &name() const { return name_; }

    /** Set the report name (builders call this). */
    void set_name(std::string name) { name_ = std::move(name); }

  protected:
    Layer() = default;

  private:
    std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace eva2

#endif // EVA2_CNN_LAYER_H
