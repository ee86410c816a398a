#include "eval/detector.h"

#include <algorithm>
#include <cmath>

#include "cnn/execution_plan.h"
#include "video/scenarios.h"

namespace eva2 {

namespace {

/** Background label used by the per-cell classifier. */
constexpr i64 kBackground = kNumClasses;

/** A single-sprite calibration scene with a known class and size. */
SceneConfig
calibration_scene(u64 seed, i64 cls, i64 height, i64 width,
                  double half_size, double speed)
{
    SceneConfig cfg;
    cfg.height = height;
    cfg.width = width;
    cfg.seed = seed;
    Rng rng(seed);
    SpriteConfig s;
    s.cls = cls;
    s.half_h = half_size * rng.uniform(0.85, 1.2);
    s.half_w = half_size * rng.uniform(0.85, 1.2);
    s.cy = rng.uniform(s.half_h + 2.0,
                       static_cast<double>(height) - s.half_h - 2.0);
    s.cx = rng.uniform(s.half_w + 2.0,
                       static_cast<double>(width) - s.half_w - 2.0);
    const double angle = rng.uniform(0.0, 2.0 * M_PI);
    s.vy = speed * std::sin(angle);
    s.vx = speed * std::cos(angle);
    s.phase = rng.uniform(0.0, 2.0 * M_PI);
    cfg.sprites.push_back(s);
    return cfg;
}

} // namespace

double
ActivationDetector::cell_center(i64 u) const
{
    return static_cast<double>(u * rf_.stride - rf_.pad) +
           static_cast<double>(rf_.size - 1) / 2.0;
}

std::vector<float>
ActivationDetector::cell_features(const Tensor &activation, i64 y,
                                  i64 x) const
{
    // Two L2-normalized blocks: the cell's own channel vector and the
    // mean over its 3x3 neighbourhood. Deep targets (VGG-scale
    // prefixes) have noisy individual cells; the context block keeps
    // classes separable where a single cell is ambiguous.
    const i64 channels = activation.channels();
    std::vector<float> f(static_cast<size_t>(2 * channels), 0.0f);
    for (i64 c = 0; c < channels; ++c) {
        f[static_cast<size_t>(c)] = activation.at(c, y, x);
    }
    for (i64 c = 0; c < channels; ++c) {
        double acc = 0.0;
        i64 n = 0;
        for (i64 dy = -1; dy <= 1; ++dy) {
            for (i64 dx = -1; dx <= 1; ++dx) {
                const i64 ny = y + dy;
                const i64 nx = x + dx;
                if (ny < 0 || ny >= activation.height() || nx < 0 ||
                    nx >= activation.width()) {
                    continue;
                }
                acc += activation.at(c, ny, nx);
                ++n;
            }
        }
        f[static_cast<size_t>(channels + c)] =
            static_cast<float>(acc / static_cast<double>(n));
    }
    for (const i64 offset : {i64{0}, channels}) {
        double norm = 0.0;
        for (i64 c = 0; c < channels; ++c) {
            const float v = f[static_cast<size_t>(offset + c)];
            norm += static_cast<double>(v) * v;
        }
        norm = std::sqrt(norm);
        if (norm > 1e-9) {
            for (i64 c = 0; c < channels; ++c) {
                f[static_cast<size_t>(offset + c)] =
                    static_cast<float>(f[static_cast<size_t>(offset + c)] /
                                       norm);
            }
        }
    }
    return f;
}

ActivationDetector
ActivationDetector::calibrate(const Network &net, i64 target_layer,
                              u64 seed)
{
    ActivationDetector det;
    det.rf_ = net.receptive_field_at(target_layer);
    det.image_h_ = net.input_shape().h;
    det.image_w_ = net.input_shape().w;
    det.num_classes_ = kNumClasses;

    std::vector<LabeledFeatures> object_cells;
    std::vector<LabeledFeatures> background_cells;

    const ExecutionPlan prefix(net, 0, target_layer + 1,
                               net.input_shape());
    auto harvest = [&](const LabeledFrame &frame) {
        const Tensor act = prefix.forward(frame.image);
        for (i64 y = 0; y < act.height(); ++y) {
            const double cy = det.cell_center(y);
            for (i64 x = 0; x < act.width(); ++x) {
                const double cx = det.cell_center(x);
                i64 label = kBackground;
                bool ambiguous = false;
                for (const BoundingBox &b : frame.truth.boxes) {
                    // Shrink for confident object cells; expand for a
                    // confident background band.
                    const double sh = 0.25 * (b.y1 - b.y0);
                    const double sw = 0.25 * (b.x1 - b.x0);
                    const bool inside =
                        cy >= b.y0 + sh && cy <= b.y1 - sh &&
                        cx >= b.x0 + sw && cx <= b.x1 - sw;
                    const bool near =
                        cy >= b.y0 - sh && cy <= b.y1 + sh &&
                        cx >= b.x0 - sw && cx <= b.x1 + sw;
                    if (inside) {
                        label = b.cls;
                    } else if (near) {
                        ambiguous = true;
                    }
                }
                if (ambiguous && label == kBackground) {
                    continue;
                }
                LabeledFeatures ex;
                ex.x = det.cell_features(act, y, x);
                ex.label = label;
                (label == kBackground ? background_cells : object_cells)
                    .push_back(std::move(ex));
            }
        }
    };

    // Single-object clips of every class, across three object sizes
    // spanning the receptive-field dilution regimes (the rf is much
    // larger than small objects, so their cells see mixed stimulus).
    for (i64 cls = 0; cls < kNumClasses; ++cls) {
        for (int variant = 0; variant < 3; ++variant) {
            for (double half : {45.0, 28.0, 14.0}) {
                SceneConfig cfg = calibration_scene(
                    seed + static_cast<u64>(cls) * 131 +
                        static_cast<u64>(variant) * 7919 +
                        static_cast<u64>(half) * 71,
                    cls, det.image_h_, det.image_w_, half, 1.0);
                const SyntheticVideo video(cfg);
                for (i64 t : {0, 5}) {
                    harvest(video.render(t));
                }
            }
        }
    }
    // Empty scenes for pure background.
    for (int variant = 0; variant < 3; ++variant) {
        SceneConfig cfg;
        cfg.height = det.image_h_;
        cfg.width = det.image_w_;
        cfg.seed = seed ^ (0x9e3779b97f4a7c15ull *
                           static_cast<u64>(variant + 1));
        const SyntheticVideo video(cfg);
        harvest(video.render(0));
    }

    std::vector<LabeledFeatures> data = std::move(object_cells);
    for (auto &ex : background_cells) {
        data.push_back(std::move(ex));
    }

    det.head_ = std::make_unique<LinearHead>(
        LinearHead::train(data, kNumClasses + 1, 150, 0.5, seed));
    return det;
}

i64
ActivationDetector::classify_cell(const Tensor &activation, i64 y,
                                  i64 x) const
{
    return head_->predict(cell_features(activation, y, x));
}

std::vector<Detection>
ActivationDetector::detect(const Tensor &activation, i64 frame_id) const
{
    require(head_ != nullptr, "detector not calibrated");
    const i64 h = activation.height();
    const i64 w = activation.width();

    // Per-cell class decisions. The cell features already include
    // 3x3 neighbourhood context (see cell_features), which is what
    // keeps individual decisions stable on deep targets; probability
    // maps are deliberately NOT spatially smoothed here, because on
    // coarse activation grids small objects occupy only one or two
    // cells and smoothing erases them.
    std::vector<i64> cell_class(static_cast<size_t>(h * w), kBackground);
    std::vector<double> cell_conf(static_cast<size_t>(h * w), 0.0);
    for (i64 y = 0; y < h; ++y) {
        for (i64 x = 0; x < w; ++x) {
            const std::vector<double> probs =
                head_->probabilities(cell_features(activation, y, x));
            i64 best = kBackground;
            double best_p = probs[static_cast<size_t>(kBackground)];
            for (i64 c = 0; c < kNumClasses; ++c) {
                if (probs[static_cast<size_t>(c)] > best_p) {
                    best_p = probs[static_cast<size_t>(c)];
                    best = c;
                }
            }
            if (best != kBackground && best_p < confidence_threshold_) {
                best = kBackground;
            }
            cell_class[static_cast<size_t>(y * w + x)] = best;
            cell_conf[static_cast<size_t>(y * w + x)] = best_p;
        }
    }

    // 4-connected components of same-class object cells.
    std::vector<Detection> detections;
    std::vector<bool> visited(static_cast<size_t>(h * w), false);
    for (i64 y = 0; y < h; ++y) {
        for (i64 x = 0; x < w; ++x) {
            const size_t idx = static_cast<size_t>(y * w + x);
            if (visited[idx] || cell_class[idx] == kBackground) {
                continue;
            }
            const i64 cls = cell_class[idx];
            std::vector<std::pair<i64, i64>> stack{{y, x}};
            visited[idx] = true;
            i64 min_y = y;
            i64 max_y = y;
            i64 min_x = x;
            i64 max_x = x;
            double conf = 0.0;
            i64 cells = 0;
            while (!stack.empty()) {
                auto [cy, cx] = stack.back();
                stack.pop_back();
                min_y = std::min(min_y, cy);
                max_y = std::max(max_y, cy);
                min_x = std::min(min_x, cx);
                max_x = std::max(max_x, cx);
                conf += cell_conf[static_cast<size_t>(cy * w + cx)];
                ++cells;
                const i64 ny[4] = {cy - 1, cy + 1, cy, cy};
                const i64 nx[4] = {cx, cx, cx - 1, cx + 1};
                for (int k = 0; k < 4; ++k) {
                    if (ny[k] < 0 || ny[k] >= h || nx[k] < 0 ||
                        nx[k] >= w) {
                        continue;
                    }
                    const size_t nidx =
                        static_cast<size_t>(ny[k] * w + nx[k]);
                    if (!visited[nidx] && cell_class[nidx] == cls) {
                        visited[nidx] = true;
                        stack.emplace_back(ny[k], nx[k]);
                    }
                }
            }

            const double half_stride =
                static_cast<double>(rf_.stride) / 2.0;
            Detection d;
            d.box.y0 = std::max(0.0, cell_center(min_y) - half_stride);
            d.box.y1 = std::min(static_cast<double>(image_h_),
                                cell_center(max_y) + half_stride);
            d.box.x0 = std::max(0.0, cell_center(min_x) - half_stride);
            d.box.x1 = std::min(static_cast<double>(image_w_),
                                cell_center(max_x) + half_stride);
            d.box.cls = cls;
            // Mean cell confidence, discounted for tiny components: a
            // one- or two-cell blob is usually classifier noise and
            // must not out-score a full-object component.
            const double size_factor = std::sqrt(
                std::min<double>(static_cast<double>(cells), 4.0) / 4.0);
            d.score = size_factor * conf / static_cast<double>(cells);
            d.frame = frame_id;
            detections.push_back(d);
        }
    }
    return detections;
}

} // namespace eva2
