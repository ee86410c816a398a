/**
 * @file
 * Cycle-level simulation of EVA2's motion-estimation pipeline: the
 * diff tile producer and consumer of Section III-A (Figure 8).
 *
 * The producer walks tiles and search offsets, computing absolute
 * pixel differences through an adder tree of configurable width. The
 * consumer slides a receptive-field window over the incoming tile
 * differences, adding the new tile column at the leading edge and
 * subtracting the old column at the trailing edge (the rolling
 * strategy the hardware uses instead of exhaustive sums), checking
 * each result against a min-check register.
 *
 * This is an independent implementation of RFBME on the same u8
 * pixels and integer sums (flow/sad_kernels.h, flow/rfbme.h); tests
 * verify it produces the same field, rf_errors and total_error as the
 * functional rfbme(), bit for bit.
 */
#ifndef EVA2_HW_DIFF_TILE_SIM_H
#define EVA2_HW_DIFF_TILE_SIM_H

#include "flow/rfbme.h"

namespace eva2 {

/** Result of simulating the diff tile pipeline over one frame pair. */
struct DiffTileSimResult
{
    MotionField field;             ///< Same convention as RfbmeResult.
    std::vector<double> rf_errors; ///< Per-RF minimum mean difference.
    double total_error = 0.0;
    i64 producer_cycles = 0;
    i64 consumer_cycles = 0;

    i64 total_cycles() const { return producer_cycles + consumer_cycles; }

    /** Wall-clock time at the EVA2 clock. */
    double
    latency_ms(double clock_period_ns = 7.0) const
    {
        return static_cast<double>(total_cycles()) * clock_period_ns *
               1e-6;
    }
};

/**
 * Simulate the producer/consumer pipeline.
 *
 * @param key              Stored key frame (single channel).
 * @param current          Incoming frame.
 * @param config           Receptive-field and search geometry.
 * @param adder_tree_width Pixel differences the producer's adder tree
 *                         retires per cycle.
 */
DiffTileSimResult simulate_diff_tile_pipeline(const Tensor &key,
                                              const Tensor &current,
                                              const RfbmeConfig &config,
                                              i64 adder_tree_width = 8);

} // namespace eva2

#endif // EVA2_HW_DIFF_TILE_SIM_H
