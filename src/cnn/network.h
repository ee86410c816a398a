/**
 * @file
 * A sequential CNN with the prefix/suffix split machinery AMC needs.
 *
 * AMC (Section II-A) divides the layer sequence at a *target layer*:
 * the prefix (everything up to and including the target) runs only on
 * key frames; the suffix runs on every frame. This class exposes
 * partial execution over layer ranges, per-layer shape and
 * receptive-field queries, and MAC accounting for the cost model.
 */
#ifndef EVA2_CNN_NETWORK_H
#define EVA2_CNN_NETWORK_H

#include <string>
#include <vector>

#include "cnn/layer.h"
#include "cnn/receptive_field.h"

namespace eva2 {

/** A feed-forward stack of layers executed in order. */
class Network
{
  public:
    /**
     * @param name        Report name ("AlexNet", "Faster16", ...).
     * @param input_shape The CHW shape this network expects.
     */
    Network(std::string name, Shape input_shape)
        : name_(std::move(name)), input_shape_(input_shape)
    {
    }

    Network(Network &&) = default;
    Network &operator=(Network &&) = default;
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Append a layer; returns its index. */
    i64
    add(LayerPtr layer)
    {
        layers_.push_back(std::move(layer));
        return static_cast<i64>(layers_.size()) - 1;
    }

    const std::string &name() const { return name_; }
    Shape input_shape() const { return input_shape_; }
    i64 num_layers() const { return static_cast<i64>(layers_.size()); }
    const Layer &layer(i64 i) const { return *layers_[static_cast<size_t>(i)]; }
    Layer &layer(i64 i) { return *layers_[static_cast<size_t>(i)]; }

    /**
     * Run layers [begin, end) on the given activation. The default
     * arguments execute the whole network.
     *
     * This is the reference execution every other path is tested
     * against: each layer's forward_into with a default ForwardCtx
     * (scalar GEMM conv tile, no fused ReLU, scalar FC chain), one
     * freshly allocated tensor per layer. It recompiles nothing and
     * caches nothing, so it suits tests, benches and one-off probes;
     * repeated execution belongs to ExecutionPlan, whose default
     * kernels are bit-identical to it.
     */
    Tensor forward(const Tensor &in, i64 begin = 0, i64 end = -1) const;

    /** Run the prefix: layers [0, target_layer]. */
    Tensor
    forward_prefix(const Tensor &in, i64 target_layer) const
    {
        return forward(in, 0, target_layer + 1);
    }

    /** Run the suffix: layers (target_layer, end). */
    Tensor
    forward_suffix(const Tensor &target_activation, i64 target_layer) const
    {
        return forward(target_activation, target_layer + 1, num_layers());
    }

    /** Output shape of layer i given the network's input shape. */
    Shape shape_at(i64 i) const;

    /** Output shapes of every layer, index-aligned with the layers. */
    std::vector<Shape> all_shapes() const;

    /**
     * Cumulative receptive field of layer i's outputs with respect to
     * the input pixels. Only valid while every layer in [0, i] is
     * spatial.
     */
    ReceptiveField receptive_field_at(i64 i) const;

    /**
     * Index of the last spatial layer: the latest mechanically legal
     * AMC target (every layer up to it has 2D structure).
     */
    i64 last_spatial_index() const;

    /**
     * The network's designated AMC target layer (Section II-C5's
     * "last spatial layer" in the paper's sense: the end of the
     * feature extractor, before task-specific machinery such as
     * Faster R-CNN's RPN/RoI stages whose data-dependent behaviour
     * prevents warping). Set by build_scaled() from the spec's
     * late_target; falls back to last_spatial_index() when unset.
     */
    i64
    default_target_index() const
    {
        return default_target_ >= 0 ? default_target_
                                    : last_spatial_index();
    }

    /** Designate the AMC target layer (see default_target_index). */
    void
    set_default_target(i64 i)
    {
        require(i >= 0 && i < num_layers(),
                "default target out of range");
        default_target_ = i;
    }

    /**
     * Index of the "early" target used in the paper's Table II study:
     * the first pooling layer.
     */
    i64 first_pool_index() const;

    /** Total MACs for layers [begin, end) at the network's input size. */
    i64 macs_in_range(i64 begin, i64 end) const;

    /** Total MACs for full execution. */
    i64 total_macs() const { return macs_in_range(0, num_layers()); }

    /** MACs in the prefix [0, target_layer]. */
    i64
    prefix_macs(i64 target_layer) const
    {
        return macs_in_range(0, target_layer + 1);
    }

    /** MACs in the suffix (target_layer, end). */
    i64
    suffix_macs(i64 target_layer) const
    {
        return macs_in_range(target_layer + 1, num_layers());
    }

    /** MACs of one layer at its in-network input shape. */
    i64 layer_macs(i64 i) const;

    /** Find a layer index by report name; -1 if absent. */
    i64 find_layer(const std::string &name) const;

  private:
    void check_range(i64 begin, i64 end) const;

    std::string name_;
    Shape input_shape_;
    std::vector<LayerPtr> layers_;
    i64 default_target_ = -1;
};

} // namespace eva2

#endif // EVA2_CNN_NETWORK_H
