/**
 * @file
 * Classic block-matching motion estimation, the family of algorithms
 * from video codecs that RFBME specializes (Section II-C1 cites
 * exhaustive search and fast variants such as three-step search).
 * These serve as baselines and as building blocks in tests.
 */
#ifndef EVA2_FLOW_BLOCK_MATCHING_H
#define EVA2_FLOW_BLOCK_MATCHING_H

#include "flow/motion_field.h"
#include "flow/sad_kernels.h"
#include "tensor/tensor.h"

namespace eva2 {

/** Parameters for block matching. */
struct BlockMatchConfig
{
    i64 block_size = 8;
    i64 search_radius = 8;
    i64 search_stride = 1;
};

/**
 * Exhaustive (full-search) block matching: for every block of the
 * current frame, scan all offsets within the radius in the key frame
 * and pick the minimum mean absolute difference. Returns a field on
 * the block grid (height/block_size x width/block_size) of backward
 * source offsets in pixels.
 */
MotionField exhaustive_block_match(const Tensor &key, const Tensor &current,
                                   const BlockMatchConfig &config);

/**
 * exhaustive_block_match into a caller-owned field (resized in
 * place): the allocation-free form for per-frame serving loops.
 */
void exhaustive_block_match_into(const Tensor &key, const Tensor &current,
                                 const BlockMatchConfig &config,
                                 MotionField &out);

/**
 * Three-step search: a logarithmic refinement that evaluates 9 points
 * per step with a halving step size. Much cheaper than exhaustive
 * search and usually close in quality (Li, Zeng, Liou 1994).
 */
MotionField three_step_search(const Tensor &key, const Tensor &current,
                              const BlockMatchConfig &config);

/** three_step_search into a caller-owned field (resized in place). */
void three_step_search_into(const Tensor &key, const Tensor &current,
                            const BlockMatchConfig &config,
                            MotionField &out);

/**
 * Diamond search: repeated large-diamond refinement followed by one
 * small-diamond step (Zhu & Ma 1997). The cheapest of the classic
 * fast searches; gradient-descent-like, so it can stop in a local
 * minimum on repetitive textures.
 */
MotionField diamond_search(const Tensor &key, const Tensor &current,
                           const BlockMatchConfig &config);

/** diamond_search into a caller-owned field (resized in place). */
void diamond_search_into(const Tensor &key, const Tensor &current,
                         const BlockMatchConfig &config,
                         MotionField &out);

/**
 * Mean absolute difference between a block of `current` anchored at
 * (by, bx) and the block of `key` displaced by (dy, dx), counting only
 * in-bounds pixels: the exact u8 SAD divided by (count * 255.0), in
 * [0, 1] pixel units. Returns infinity when no pixels overlap. The
 * searches above quantize both frames once (quantize_frame) and call
 * this per candidate.
 */
double block_mad(const PixelPlane &key, const PixelPlane &current, i64 by,
                 i64 bx, i64 block, i64 dy, i64 dx);

} // namespace eva2

#endif // EVA2_FLOW_BLOCK_MATCHING_H
