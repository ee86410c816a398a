#include "cnn/network.h"

namespace eva2 {

void
Network::check_range(i64 begin, i64 end) const
{
    require(begin >= 0 && end <= num_layers() && begin <= end,
            "network " + name_ + ": bad layer range [" +
                std::to_string(begin) + ", " + std::to_string(end) + ")");
}

Tensor
Network::forward(const Tensor &in, i64 begin, i64 end) const
{
    if (end < 0) {
        end = num_layers();
    }
    check_range(begin, end);
    Tensor act = in;
    for (i64 i = begin; i < end; ++i) {
        const Layer &layer = *layers_[static_cast<size_t>(i)];
        Tensor out(layer.out_shape(act.shape()));
        ForwardCtx ctx;
        ctx.out = &out;
        layer.forward_into(act, ctx);
        act = std::move(out);
    }
    return act;
}

Shape
Network::shape_at(i64 i) const
{
    check_range(0, i + 1);
    Shape s = input_shape_;
    for (i64 j = 0; j <= i; ++j) {
        s = layers_[static_cast<size_t>(j)]->out_shape(s);
    }
    return s;
}

std::vector<Shape>
Network::all_shapes() const
{
    std::vector<Shape> shapes;
    shapes.reserve(static_cast<size_t>(num_layers()));
    Shape s = input_shape_;
    for (const auto &layer : layers_) {
        s = layer->out_shape(s);
        shapes.push_back(s);
    }
    return shapes;
}

ReceptiveField
Network::receptive_field_at(i64 i) const
{
    check_range(0, i + 1);
    ReceptiveField rf;
    for (i64 j = 0; j <= i; ++j) {
        const Layer &l = *layers_[static_cast<size_t>(j)];
        require(l.spatial(),
                "receptive_field_at: layer " + std::to_string(j) + " (" +
                    l.name() + ") is non-spatial");
        rf = rf.compose(l.geometry());
    }
    return rf;
}

i64
Network::last_spatial_index() const
{
    i64 last = -1;
    for (i64 i = 0; i < num_layers(); ++i) {
        if (!layers_[static_cast<size_t>(i)]->spatial()) {
            break;
        }
        last = i;
    }
    require(last >= 0, "network " + name_ + " has no spatial layers");
    return last;
}

i64
Network::first_pool_index() const
{
    for (i64 i = 0; i < num_layers(); ++i) {
        if (layers_[static_cast<size_t>(i)]->kind() == LayerKind::kPool) {
            return i;
        }
    }
    return -1;
}

i64
Network::macs_in_range(i64 begin, i64 end) const
{
    if (end < 0) {
        end = num_layers();
    }
    check_range(begin, end);
    i64 total = 0;
    Shape s = input_shape_;
    for (i64 i = 0; i < end; ++i) {
        const Layer &l = *layers_[static_cast<size_t>(i)];
        if (i >= begin) {
            total += l.macs(s);
        }
        s = l.out_shape(s);
    }
    return total;
}

i64
Network::layer_macs(i64 i) const
{
    check_range(0, i + 1);
    Shape s = i == 0 ? input_shape_ : shape_at(i - 1);
    return layers_[static_cast<size_t>(i)]->macs(s);
}

i64
Network::find_layer(const std::string &name) const
{
    for (i64 i = 0; i < num_layers(); ++i) {
        if (layers_[static_cast<size_t>(i)]->name() == name) {
            return i;
        }
    }
    return -1;
}

const char *
layer_kind_name(LayerKind kind)
{
    switch (kind) {
      case LayerKind::kConv:
        return "conv";
      case LayerKind::kPool:
        return "pool";
      case LayerKind::kRelu:
        return "relu";
      case LayerKind::kLrn:
        return "lrn";
      case LayerKind::kFc:
        return "fc";
      case LayerKind::kSoftmax:
        return "softmax";
    }
    return "unknown";
}

} // namespace eva2
