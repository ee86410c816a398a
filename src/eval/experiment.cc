#include "eval/experiment.h"

#include "api/registry.h"
#include "eval/oracle_motion.h"
#include "flow/optical_flow.h"
#include "flow/rfbme.h"

namespace eva2 {

const char *
motion_source_name(MotionSource source)
{
    switch (source) {
      case MotionSource::kNewKey:
        return "new key frame";
      case MotionSource::kRfbme:
        return "RFBME";
      case MotionSource::kLucasKanade:
        return "Lucas-Kanade";
      case MotionSource::kDenseFlow:
        return "FlowNet2-s (sub)";
      case MotionSource::kOldKey:
        return "old key frame";
      case MotionSource::kOracleMotion:
        return "oracle motion";
    }
    return "unknown";
}

namespace {

/** The compiled prefix [0, layer] for frames of the network's input
 * shape. */
ExecutionPlan
prefix_plan(const Network &net, i64 layer)
{
    return ExecutionPlan(net, 0, layer + 1, net.input_shape());
}

/**
 * predict_target_activation over a compiled prefix plan, whose last
 * layer is the target. Callers that predict many frames compile the
 * plan once and reuse it.
 */
Tensor
predict_with(const ExecutionPlan &prefix, const Tensor &key_frame,
             const Tensor &current_frame, MotionSource source,
             InterpMode interp, i64 search_radius, i64 search_stride)
{
    if (source == MotionSource::kNewKey) {
        return prefix.forward(current_frame);
    }

    const Tensor key_act = prefix.forward(key_frame);
    if (source == MotionSource::kOldKey) {
        return key_act;
    }

    const ReceptiveField rf =
        prefix.network().receptive_field_at(prefix.end() - 1);
    MotionField field;
    switch (source) {
      case MotionSource::kRfbme: {
        RfbmeConfig config;
        config.rf_size = rf.size;
        config.rf_stride = rf.stride;
        config.rf_pad = rf.pad;
        config.search_radius = search_radius;
        config.search_stride = search_stride;
        field = rfbme(key_frame, current_frame, config).field;
        break;
      }
      case MotionSource::kLucasKanade: {
        const MotionField dense =
            lucas_kanade(current_frame, key_frame);
        field = average_to_grid(dense, key_act.height(), key_act.width(),
                                rf.size, rf.stride, rf.pad);
        break;
      }
      case MotionSource::kDenseFlow: {
        const MotionField dense =
            horn_schunck(current_frame, key_frame);
        field = average_to_grid(dense, key_act.height(), key_act.width(),
                                rf.size, rf.stride, rf.pad);
        break;
      }
      default:
        throw InternalError("unhandled motion source");
    }
    field = fit_field(field, key_act.height(), key_act.width());
    return warp_activation(key_act, field, rf.stride, interp);
}

/** The LabeledFrame form of predict_with (adds kOracleMotion). */
Tensor
predict_with(const ExecutionPlan &prefix, const LabeledFrame &key_frame,
             const LabeledFrame &current_frame, MotionSource source,
             InterpMode interp, i64 search_radius, i64 search_stride)
{
    if (source != MotionSource::kOracleMotion) {
        return predict_with(prefix, key_frame.image, current_frame.image,
                            source, interp, search_radius,
                            search_stride);
    }
    const Tensor key_act = prefix.forward(key_frame.image);
    const ReceptiveField rf =
        prefix.network().receptive_field_at(prefix.end() - 1);
    const MotionField dense =
        oracle_backward_motion(key_frame, current_frame);
    MotionField field =
        average_to_grid(dense, key_act.height(), key_act.width(),
                        rf.size, rf.stride, rf.pad);
    field = fit_field(field, key_act.height(), key_act.width());
    return warp_activation(key_act, field, rf.stride, interp);
}

} // namespace

Tensor
predict_target_activation(const Network &net, i64 target_layer,
                          const Tensor &key_frame,
                          const Tensor &current_frame, MotionSource source,
                          InterpMode interp, i64 search_radius,
                          i64 search_stride)
{
    return predict_with(prefix_plan(net, target_layer), key_frame,
                        current_frame, source, interp, search_radius,
                        search_stride);
}

Tensor
predict_target_activation(const Network &net, i64 target_layer,
                          const LabeledFrame &key_frame,
                          const LabeledFrame &current_frame,
                          MotionSource source, InterpMode interp,
                          i64 search_radius, i64 search_stride)
{
    return predict_with(prefix_plan(net, target_layer), key_frame,
                        current_frame, source, interp, search_radius,
                        search_stride);
}

GapDetectionResult
detection_at_gap(const Network &net, const ActivationDetector &detector,
                 const std::vector<Sequence> &sequences, i64 gap_frames,
                 MotionSource source, InterpMode interp, i64 target_layer,
                 i64 step, i64 search_radius, i64 search_stride)
{
    // The detector reads the last spatial activation; when predicting
    // at an earlier target layer (Table II's early-target runs), the
    // layers between target and read-out still execute, exactly as
    // the CNN suffix does after AMC's warp.
    const i64 readout_layer = net.default_target_index();
    if (target_layer < 0) {
        target_layer = readout_layer;
    }
    require(target_layer <= readout_layer,
            "detection_at_gap: target must be a spatial layer");
    require(gap_frames >= 1, "detection_at_gap: gap must be >= 1");
    require(step >= 1, "detection_at_gap: step must be >= 1");

    const ExecutionPlan readout = prefix_plan(net, readout_layer);
    const ExecutionPlan prefix = prefix_plan(net, target_layer);
    const ExecutionPlan between(net, target_layer + 1, readout_layer + 1,
                                prefix.out_shape());
    std::vector<Detection> dets;
    std::vector<Detection> oracle_dets;
    std::vector<GtBox> truths;
    std::vector<GtBox> oracle_truths;
    GapDetectionResult result;
    i64 frame_id = 0;

    for (const Sequence &seq : sequences) {
        for (i64 t = 0; t + gap_frames < seq.size(); t += step) {
            const LabeledFrame &key = seq[t];
            const LabeledFrame &cur = seq[t + gap_frames];
            const Tensor oracle = readout.forward(cur.image);
            const Tensor predicted =
                between.forward(predict_with(prefix, key, cur, source,
                                             interp, search_radius,
                                             search_stride));

            const std::vector<Detection> frame_dets =
                detector.detect(predicted, frame_id);
            dets.insert(dets.end(), frame_dets.begin(), frame_dets.end());
            oracle_dets.insert(oracle_dets.end(), frame_dets.begin(),
                               frame_dets.end());
            for (const BoundingBox &b : cur.truth.boxes) {
                truths.push_back(GtBox{b, frame_id});
            }
            // The oracle's own detections serve as ground truth for
            // the agreement metric.
            for (const Detection &d : detector.detect(oracle, frame_id)) {
                oracle_truths.push_back(GtBox{d.box, frame_id});
            }
            ++frame_id;
            ++result.evaluated_frames;
        }
    }
    result.map = mean_average_precision(dets, truths);
    result.map_oracle =
        mean_average_precision(oracle_dets, oracle_truths);
    return result;
}

GapClassificationResult
classification_at_gap(const Network &net,
                      const PrototypeClassifier &classifier,
                      const std::vector<Sequence> &sequences,
                      i64 gap_frames, MotionSource source,
                      i64 target_layer, i64 step)
{
    // The classifier reads the designated target activation; when
    // predicting at an earlier layer, the layers in between still
    // execute, exactly as the CNN suffix does after AMC's warp.
    const i64 readout_layer = net.default_target_index();
    if (target_layer < 0) {
        target_layer = readout_layer;
    }
    require(target_layer <= readout_layer,
            "classification_at_gap: target must precede the read-out");
    require(gap_frames >= 1, "classification_at_gap: gap must be >= 1");

    const ExecutionPlan readout = prefix_plan(net, readout_layer);
    const ExecutionPlan prefix = prefix_plan(net, target_layer);
    const ExecutionPlan between(net, target_layer + 1, readout_layer + 1,
                                prefix.out_shape());
    GapClassificationResult result;
    std::vector<i64> predicted_labels;
    std::vector<i64> truth_labels;
    std::vector<i64> oracle_labels;

    for (const Sequence &seq : sequences) {
        for (i64 t = 0; t + gap_frames < seq.size(); t += step) {
            const LabeledFrame &key = seq[t];
            const LabeledFrame &cur = seq[t + gap_frames];
            const Tensor predicted_act = between.forward(predict_with(
                prefix, key, cur, source, InterpMode::kBilinear,
                /*search_radius=*/28, /*search_stride=*/2));
            const Tensor oracle_act = readout.forward(cur.image);

            predicted_labels.push_back(classifier.classify(predicted_act));
            oracle_labels.push_back(classifier.classify(oracle_act));
            truth_labels.push_back(cur.truth.dominant_class);
            ++result.evaluated_frames;
        }
    }
    result.accuracy = agreement(predicted_labels, truth_labels);
    result.oracle_agreement = agreement(predicted_labels, oracle_labels);
    return result;
}

AdaptiveRunResult
run_adaptive_detection(const Network &net,
                       const ActivationDetector &detector,
                       const std::vector<Sequence> &sequences,
                       const PolicyFactory &policy, AmcOptions options)
{
    AdaptiveRunResult result;
    std::vector<Detection> dets;
    std::vector<GtBox> truths;
    i64 frame_id = 0;

    for (const Sequence &seq : sequences) {
        AmcPipeline pipeline(net, policy(), options);
        for (i64 t = 0; t < seq.size(); ++t) {
            const AmcFrameResult fr = pipeline.process(seq[t].image);
            for (Detection d :
                 detector.detect(fr.target_activation, frame_id)) {
                dets.push_back(d);
            }
            for (const BoundingBox &b : seq[t].truth.boxes) {
                truths.push_back(GtBox{b, frame_id});
            }
            ++frame_id;
        }
        result.frames += pipeline.stats().frames;
        result.key_frames += pipeline.stats().key_frames;
    }
    result.accuracy = mean_average_precision(dets, truths);
    result.key_fraction =
        result.frames == 0 ? 0.0
                           : static_cast<double>(result.key_frames) /
                                 static_cast<double>(result.frames);
    return result;
}

AdaptiveRunResult
run_adaptive_classification(const Network &net,
                            const PrototypeClassifier &classifier,
                            const std::vector<Sequence> &sequences,
                            const PolicyFactory &policy,
                            AmcOptions options)
{
    AdaptiveRunResult result;
    std::vector<i64> predicted;
    std::vector<i64> truth;

    for (const Sequence &seq : sequences) {
        AmcPipeline pipeline(net, policy(), options);
        for (i64 t = 0; t < seq.size(); ++t) {
            const AmcFrameResult fr = pipeline.process(seq[t].image);
            predicted.push_back(
                classifier.classify(fr.target_activation));
            truth.push_back(seq[t].truth.dominant_class);
        }
        result.frames += pipeline.stats().frames;
        result.key_frames += pipeline.stats().key_frames;
    }
    result.accuracy = agreement(predicted, truth);
    result.key_fraction =
        result.frames == 0 ? 0.0
                           : static_cast<double>(result.key_frames) /
                                 static_cast<double>(result.frames);
    return result;
}

AdaptiveRunResult
run_adaptive_detection(const Network &net,
                       const ActivationDetector &detector,
                       const std::vector<Sequence> &sequences,
                       const std::string &policy_spec,
                       AmcOptions options)
{
    return run_adaptive_detection(
        net, detector, sequences,
        PolicyRegistry::instance().factory(policy_spec), options);
}

AdaptiveRunResult
run_adaptive_classification(const Network &net,
                            const PrototypeClassifier &classifier,
                            const std::vector<Sequence> &sequences,
                            const std::string &policy_spec,
                            AmcOptions options)
{
    return run_adaptive_classification(
        net, classifier, sequences,
        PolicyRegistry::instance().factory(policy_spec), options);
}

double
baseline_detection_map(const Network &net,
                       const ActivationDetector &detector,
                       const std::vector<Sequence> &sequences,
                       i64 target_layer)
{
    if (target_layer < 0) {
        target_layer = net.default_target_index();
    }
    const ExecutionPlan prefix = prefix_plan(net, target_layer);
    std::vector<Detection> dets;
    std::vector<GtBox> truths;
    i64 frame_id = 0;
    for (const Sequence &seq : sequences) {
        for (i64 t = 0; t < seq.size(); ++t) {
            const Tensor act = prefix.forward(seq[t].image);
            for (Detection d : detector.detect(act, frame_id)) {
                dets.push_back(d);
            }
            for (const BoundingBox &b : seq[t].truth.boxes) {
                truths.push_back(GtBox{b, frame_id});
            }
            ++frame_id;
        }
    }
    return mean_average_precision(dets, truths);
}

double
baseline_classification_accuracy(const Network &net,
                                 const PrototypeClassifier &classifier,
                                 const std::vector<Sequence> &sequences)
{
    const ExecutionPlan prefix =
        prefix_plan(net, net.default_target_index());
    std::vector<i64> predicted;
    std::vector<i64> truth;
    for (const Sequence &seq : sequences) {
        for (i64 t = 0; t < seq.size(); ++t) {
            predicted.push_back(
                classifier.classify(prefix.forward(seq[t].image)));
            truth.push_back(seq[t].truth.dominant_class);
        }
    }
    return agreement(predicted, truth);
}

} // namespace eva2
