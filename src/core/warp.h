/**
 * @file
 * Activation warping: the motion-compensation half of AMC.
 *
 * Given the stored key-frame activation of the target layer and a
 * motion field estimated on the input pixels, warping produces the
 * predicted activation (Section II-B): pixel-space vectors are scaled
 * by the cumulative receptive-field stride into activation space, and
 * fractional destinations are resolved by interpolation
 * (Section II-C3 chooses bilinear; nearest-neighbour is the cheap
 * alternative it is compared against).
 */
#ifndef EVA2_CORE_WARP_H
#define EVA2_CORE_WARP_H

#include "flow/motion_field.h"
#include "sparse/rle.h"
#include "tensor/tensor.h"

namespace eva2 {

/** Interpolation mode for fractional activation coordinates. */
enum class InterpMode
{
    kBilinear,
    kNearest,
};

/**
 * Warp a stored activation with a motion field.
 *
 * @param key_activation Target-layer activation saved at the key frame.
 * @param field          Backward source offsets in *pixel* units, on a
 *                       grid matching the activation's spatial dims
 *                       (use fit_field() to reconcile off-by-one grid
 *                       sizes from RFBME).
 * @param rf_stride      Cumulative receptive-field stride of the
 *                       target layer; pixel vectors are divided by
 *                       this to land in activation coordinates.
 * @param mode           Interpolation for fractional coordinates.
 * @return The predicted activation, same shape as key_activation.
 */
Tensor warp_activation(const Tensor &key_activation,
                       const MotionField &field, i64 rf_stride,
                       InterpMode mode = InterpMode::kBilinear);

/**
 * warp_activation into a caller-owned tensor (reshaped in place, e.g.
 * a ScratchArena slot), the allocation-free form the compiled frame
 * path runs every predicted frame. Bit-identical to warp_activation.
 * `out` must not alias `key_activation`.
 */
void warp_activation_into(const Tensor &key_activation,
                          const MotionField &field, i64 rf_stride,
                          InterpMode mode, Tensor &out);

/**
 * Warp straight from the run-length encoded key activation — the
 * compressed-resident form a session keeps between frames — without
 * materializing a dense decoded tensor first (no rle_decode round
 * trip, no per-entry division). Each channel's runs are expanded into
 * a reused thread-local plane buffer and fed to the same apply
 * kernels as warp_activation_into; channels with no encoded entries
 * (fully pruned by the RLE zero threshold) skip the gather entirely
 * and write an exact +0.0 plane. Bit-identical to
 * warp_activation_into(rle_decode(key), ...) by construction, and
 * like it runs the SIMD apply kernels wherever simd_supported().
 */
void warp_activation_rle_into(const RleActivation &key,
                              const MotionField &field, i64 rf_stride,
                              InterpMode mode, Tensor &out);

/** Allocating convenience form of warp_activation_rle_into. */
Tensor warp_activation_rle(const RleActivation &key,
                           const MotionField &field, i64 rf_stride,
                           InterpMode mode = InterpMode::kBilinear);

/**
 * Resize a motion field grid to (h, w) by cropping extra cells and
 * edge-extending missing ones. Receptive-field arithmetic and layer
 * flooring can disagree by a cell at the border; this reconciles them.
 */
MotionField fit_field(const MotionField &field, i64 h, i64 w);

/**
 * fit_field into a caller-owned field (resized in place), the
 * allocation-free form. Unlike fit_field it always copies, even when
 * the grids already agree. `out` must not alias `field`.
 */
void fit_field_into(const MotionField &field, i64 h, i64 w,
                    MotionField &out);

} // namespace eva2

#endif // EVA2_CORE_WARP_H
