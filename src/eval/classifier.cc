#include "eval/classifier.h"

#include <cmath>

#include "cnn/execution_plan.h"
#include "eval/retrain.h"
#include "video/scenarios.h"

namespace eva2 {

PrototypeClassifier
PrototypeClassifier::calibrate(const Network &net, u64 seed)
{
    PrototypeClassifier clf;
    const ExecutionPlan prefix(net, 0, net.default_target_index() + 1,
                               net.input_shape());
    for (i64 cls = 0; cls < kNumClasses; ++cls) {
        // Average several scene variants (different backgrounds,
        // object placements and sizes) so the prototype captures the
        // class texture rather than one particular scene.
        std::vector<double> proto;
        for (u64 variant = 0; variant < 4; ++variant) {
            SceneConfig cfg = classification_scene(
                seed + static_cast<u64>(cls) * 977 + variant * 8171,
                cls, 0.0, net.input_shape().h);
            const SyntheticVideo video(cfg);
            for (i64 t : {0, 7}) {
                const std::vector<float> f = pooled_features(
                    prefix.forward(video.render(t).image));
                if (proto.empty()) {
                    proto.assign(f.size(), 0.0);
                }
                for (size_t i = 0; i < f.size(); ++i) {
                    proto[i] += f[i];
                }
            }
        }
        double norm = 0.0;
        for (double v : proto) {
            norm += v * v;
        }
        norm = std::sqrt(norm);
        if (norm > 1e-12) {
            for (double &v : proto) {
                v /= norm;
            }
        }
        clf.protos_.push_back(std::move(proto));
    }
    return clf;
}

i64
PrototypeClassifier::classify(const Tensor &target_activation) const
{
    require(!protos_.empty(), "classifier not calibrated");
    const std::vector<float> f = pooled_features(target_activation);
    require(f.size() == protos_[0].size(),
            "classifier: activation channel count mismatch");
    double norm = 0.0;
    for (float v : f) {
        norm += static_cast<double>(v) * v;
    }
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
        return 0;
    }
    double best = -2.0;
    i64 best_cls = 0;
    for (size_t cls = 0; cls < protos_.size(); ++cls) {
        double dot = 0.0;
        for (size_t i = 0; i < f.size(); ++i) {
            dot += static_cast<double>(f[i]) * protos_[cls][i];
        }
        const double sim = dot / norm;
        if (sim > best) {
            best = sim;
            best_cls = static_cast<i64>(cls);
        }
    }
    return best_cls;
}

} // namespace eva2
