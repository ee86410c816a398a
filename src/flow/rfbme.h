/**
 * @file
 * Receptive field block motion estimation (RFBME), the paper's new
 * motion estimation algorithm (Sections II-C1 and III-A).
 *
 * RFBME estimates one motion vector per *receptive field* of the AMC
 * target layer, exactly the granularity activation warping can use.
 * It exploits two properties of receptive fields: (1) nearby fields
 * overlap heavily, so their absolute-difference sums share tile-level
 * partial sums (tiles are s x s squares where s is the receptive-field
 * stride), and (2) padding places part of border fields outside the
 * image, where comparisons are unnecessary.
 *
 * `rfbme()` is the optimized functional algorithm (tile reuse via
 * summed-area tables, the software analogue of the hardware's rolling
 * adds/subtracts); `rfbme_naive()` recomputes every receptive field
 * from scratch and exists to validate the optimized path and to
 * measure the op-count gap the paper quantifies in Section IV-A.
 *
 * Every implementation sums integers: pixels are quantized to u8,
 * tile and prefix sums are int32, and the minimum search compares
 * sum_a * count_b < sum_b * count_a in int64 (no division; the lowest
 * offset index wins ties). Scalar, SIMD, naive, the diff-tile
 * simulator and any thread count therefore agree bit for bit. See
 * docs/motion_estimation.md.
 */
#ifndef EVA2_FLOW_RFBME_H
#define EVA2_FLOW_RFBME_H

#include <vector>

#include "flow/motion_field.h"
#include "flow/sad_kernels.h"
#include "tensor/tensor.h"

namespace eva2 {

/**
 * Diff-tile producer implementation. RFBME sums integer differences
 * of u8 pixels (flow/sad_kernels.h), so both variants return the same
 * result on every input by construction. kSimd falls back to the
 * scalar kernel when simd_supported() is false or the tile width has
 * no SIMD path.
 */
enum class RfbmeVariant : i64
{
    kScalar = 0, ///< Scalar integer tile kernel (the oracle tier).
    kSimd = 1,   ///< _mm256_sad_epu8 tile kernel.
};

/** Printable variant name ("scalar" or "simd"). */
const char *rfbme_variant_name(RfbmeVariant v);

/** Parameters of an RFBME run. */
struct RfbmeConfig
{
    i64 rf_size = 6;   ///< Receptive-field extent in pixels.
    i64 rf_stride = 2; ///< Receptive-field stride in pixels.
    i64 rf_pad = 2;    ///< Receptive-field padding in pixels.
    i64 search_radius = 12; ///< Max offset searched, in pixels.
    i64 search_stride = 2;  ///< Offset grid step, in pixels.

    /** Diff-tile producer; variants are bit-identical (see above). */
    RfbmeVariant variant = RfbmeVariant::kScalar;
};

/** Output of an RFBME run. */
struct RfbmeResult
{
    /**
     * Backward source offsets (pixel units) on the activation grid:
     * activation(u) should be read from key activation at
     * u + field(u)/rf_stride.
     */
    MotionField field;

    /**
     * Per-receptive-field minimum mean absolute pixel difference, the
     * block "match error" reused by the adaptive key-frame policy:
     * sum / (count * 255.0) of the winning offset's u8 SAD over its
     * count valid pixels, so it is in [0, 1] pixel units. Row-major,
     * aligned with `field`; 0 for a field with no valid pixel.
     */
    std::vector<double> rf_errors;

    /** Sum of rf_errors, in row-major order. */
    double total_error = 0.0;

    /** Mean of rf_errors. */
    double mean_error = 0.0;

    /** Arithmetic (add/subtract) operations actually performed. */
    i64 add_ops = 0;
};

/**
 * Reusable buffers for rfbme_into. A workspace amortizes every
 * heap allocation RFBME needs — the quantized and zero-margined
 * frames, the column masks, the candidate-offset grid, and the
 * per-chunk tile/prefix/minimum planes — so a per-stream workspace
 * makes steady-state motion estimation allocation-free (the compiled
 * frame path keeps one per stream). A workspace is not thread-safe;
 * it belongs to one estimator call at a time. The offset grid is
 * cached against the config that built it and rebuilt only when the
 * search geometry changes.
 */
struct RfbmeWorkspace
{
    /**
     * Per-chunk buffers of the parallel candidate-offset search. The
     * tile plane is rewritten per offset and the prefix plane's
     * interior too (its zero first row and column are set per call).
     */
    struct Chunk
    {
        std::vector<i32> tile_sum;   ///< Per-tile SAD, one offset.
        std::vector<i32> prefix;     ///< 2D prefix sums of tile_sum.
        std::vector<i64> row_valid;  ///< Prefix of valid rows per tile row.
        std::vector<i64> col_valid;  ///< Prefix of valid cols per tile col.
        std::vector<i64> best_sum;   ///< Winning SAD per cell.
        std::vector<i64> best_count; ///< Its valid-pixel count.
        std::vector<i32> winner;     ///< Winning offset index, or -1.
        i64 add_ops = 0;
    };

    std::vector<Vec2> offsets;
    std::vector<Chunk> chunks;

    /** The Tensor-key overload's quantized key. */
    PixelPlane key_q;
    /** Key rows with a zero margin of the search radius on each side. */
    std::vector<u8> key_pad;
    /** Quantized current frame, rows padded to a multiple of 32. */
    std::vector<u8> cur_q;
    /** One in-frame column mask per candidate dx. */
    std::vector<u8> masks;
    /** Per-cell full-tile ranges along y and x. */
    std::vector<i64> range_y;
    std::vector<i64> range_x;

    bool offsets_valid = false;
    i64 offsets_radius = -1;
    i64 offsets_stride = -1;

    /** Bytes held by every buffer above (resident-set accounting). */
    i64 bytes() const;
};

/**
 * Run optimized RFBME between a stored key frame and the current
 * frame. Both frames must be single-channel and the same size; both
 * are quantized to u8 first (flow/sad_kernels.h).
 */
RfbmeResult rfbme(const Tensor &key, const Tensor &current,
                  const RfbmeConfig &config);

/**
 * rfbme into a caller-owned result and workspace, both resized in
 * place: the allocation-free form the compiled frame path runs every
 * candidate frame, against the key it quantized when the key was
 * stored (FramePlan::key_pixels()). The current frame is quantized
 * here. Any thread count gives the same result.
 */
void rfbme_into(const PixelPlane &key, const Tensor &current,
                const RfbmeConfig &config, RfbmeResult &result,
                RfbmeWorkspace &ws);

/** rfbme_into on a float key, quantized into the workspace first. */
void rfbme_into(const Tensor &key, const Tensor &current,
                const RfbmeConfig &config, RfbmeResult &result,
                RfbmeWorkspace &ws);

/**
 * Reference implementation without tile reuse: every receptive field
 * difference is recomputed pixel by pixel on the same u8 pixels.
 * Produces the same field, rf_errors and total_error as rfbme(), bit
 * for bit; add_ops counts its own (redundant) work.
 */
RfbmeResult rfbme_naive(const Tensor &key, const Tensor &current,
                        const RfbmeConfig &config);

/**
 * The minimum-search comparison every RFBME implementation shares:
 * true when (sum_a, count_a) has a strictly lower mean difference
 * than (sum_b, count_b). Exact int64 cross-multiplication, no
 * division (sums stay below 2^31 and counts below 2^23, so the
 * products fit). Strict, so the earlier candidate keeps a tie.
 */
inline bool
rfbme_lower_error(i64 sum_a, i64 count_a, i64 sum_b, i64 count_b)
{
    return sum_a * count_b < sum_b * count_a;
}

/** A winning (sum, count) as an rf_error in [0, 1] pixel units. */
inline double
rfbme_error(i64 sum, i64 count)
{
    return static_cast<double>(sum) /
           (static_cast<double>(count) * 255.0);
}

/**
 * Full-tile range [t_lo, t_hi) of receptive field coordinate u along
 * one axis, clipped to the image's `tiles` tiles. A tile t covers
 * pixels [t*s, (t+1)*s) and belongs to the field only if it lies
 * entirely within the field's window (partial tiles are ignored,
 * Section III-A).
 */
void rfbme_tile_range(i64 u, const RfbmeConfig &config, i64 tiles,
                      i64 &t_lo, i64 &t_hi);

/** Activation-grid height RFBME produces for an image height. */
i64 rfbme_out_size(i64 image_extent, const RfbmeConfig &config);

} // namespace eva2

#endif // EVA2_FLOW_RFBME_H
