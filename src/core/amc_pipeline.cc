#include "core/amc_pipeline.h"

namespace eva2 {

AmcPipeline::AmcPipeline(const Network &net,
                         std::unique_ptr<KeyFramePolicy> policy,
                         AmcOptions opts)
    : plan_(net, std::move(policy), opts)
{
}

ScratchArena &
AmcPipeline::arena() const
{
    return arena_override_ != nullptr
               ? *arena_override_
               : ScratchArena::for_current_thread();
}

void
AmcPipeline::set_observer(AmcObserver *observer)
{
    observer_ = observer;
    if (observer_ == nullptr) {
        return;
    }
    for (const PlanRecord &record : plan_records()) {
        observer_->on_plan(record);
    }
}

void
AmcPipeline::reset()
{
    plan_.reset();
}

AmcFrameResult
AmcPipeline::materialize(const FrontResult &front)
{
    const Tensor &output = plan_.run_suffix(0, arena(), observer_);
    StageScope timer(observer_, AmcStage::kCommit);
    AmcFrameResult result;
    result.is_key = front.is_key;
    result.features = front.features;
    result.me_add_ops = front.me_add_ops;
    result.output = output;
    result.target_activation = plan_.slot_activation(0);
    return result;
}

AmcFrameResult
AmcPipeline::process(const Tensor &frame)
{
    return materialize(plan_.run_front(frame, 0, arena(), observer_));
}

Tensor
AmcPipeline::run_key(const Tensor &frame)
{
    plan_.run_front_key(frame, 0, arena(), observer_);
    return plan_.run_suffix(0, arena(), observer_);
}

AmcFrameResult
AmcPipeline::run_predicted(const Tensor &frame)
{
    return materialize(
        plan_.run_front_predicted(frame, 0, arena(), observer_));
}

} // namespace eva2
