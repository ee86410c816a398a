/**
 * @file
 * A minimal dense tensor library used throughout the reproduction.
 *
 * CNN activations are stored channel-major (CHW): all of channel 0's
 * rows, then channel 1's, and so on. This matches the layout EVA2's
 * run-length encoder walks (zero gaps within a channel, Section III-B)
 * and keeps the inner convolution loops contiguous.
 */
#ifndef EVA2_TENSOR_TENSOR_H
#define EVA2_TENSOR_TENSOR_H

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "util/common.h"
#include "util/span.h"

namespace eva2 {

/** Dimensions of a CHW tensor. */
struct Shape
{
    i64 c = 0; ///< Channels.
    i64 h = 0; ///< Rows.
    i64 w = 0; ///< Columns.

    /** Total number of elements. */
    i64 size() const { return c * h * w; }

    bool
    operator==(const Shape &o) const
    {
        return c == o.c && h == o.h && w == o.w;
    }

    bool operator!=(const Shape &o) const { return !(*this == o); }

    /** Human-readable "CxHxW" form for error messages. */
    std::string
    str() const
    {
        return std::to_string(c) + "x" + std::to_string(h) + "x" +
               std::to_string(w);
    }
};

/**
 * A dense CHW float tensor. Single-precision float is the reference
 * numeric type; the hardware models quantize to 16-bit fixed point
 * where the paper's datapaths do.
 */
class Tensor
{
  public:
    /** An empty (0x0x0) tensor. */
    Tensor() = default;

    /** A zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape)
        : shape_(shape),
          data_(static_cast<size_t>(shape.size()), 0.0f)
    {
        require(shape.c >= 0 && shape.h >= 0 && shape.w >= 0,
                "tensor dimensions must be non-negative");
        if (!data_.empty()) {
            note_buffer_allocation();
        }
    }

    /** Convenience constructor from explicit dimensions. */
    Tensor(i64 c, i64 h, i64 w) : Tensor(Shape{c, h, w}) {}

    Tensor(const Tensor &o) : shape_(o.shape_), data_(o.data_)
    {
        if (!data_.empty()) {
            note_buffer_allocation();
        }
    }

    Tensor &
    operator=(const Tensor &o)
    {
        if (this != &o) {
            if (o.data_.size() > data_.capacity()) {
                note_buffer_allocation();
            }
            shape_ = o.shape_;
            data_ = o.data_;
        }
        return *this;
    }

    Tensor(Tensor &&) = default;
    Tensor &operator=(Tensor &&) = default;

    const Shape &shape() const { return shape_; }
    i64 channels() const { return shape_.c; }
    i64 height() const { return shape_.h; }
    i64 width() const { return shape_.w; }
    i64 size() const { return shape_.size(); }
    bool empty() const { return data_.empty(); }
    /** Elements the buffer holds (at least size()); reshape_to never
     * shrinks it. */
    i64 capacity() const { return static_cast<i64>(data_.capacity()); }

    /**
     * Mutable element access. Bounds-checked in Debug builds (and
     * therefore on the Debug half of the CI matrix); the check
     * compiles out entirely in Release so the hot kernel loops pay
     * nothing.
     */
    float &
    at(i64 c, i64 y, i64 x)
    {
        check_bounds(c, y, x);
        return data_[static_cast<size_t>((c * shape_.h + y) * shape_.w + x)];
    }

    /** Const element access (Debug-only bounds check, as above). */
    float
    at(i64 c, i64 y, i64 x) const
    {
        check_bounds(c, y, x);
        return data_[static_cast<size_t>((c * shape_.h + y) * shape_.w + x)];
    }

    /**
     * Element access that returns 0 for out-of-bounds coordinates, the
     * semantics of zero padding in convolutional layers.
     */
    float
    at_padded(i64 c, i64 y, i64 x) const
    {
        if (y < 0 || y >= shape_.h || x < 0 || x >= shape_.w) {
            return 0.0f;
        }
        return at(c, y, x);
    }

    /** Flat element access by linear CHW index. */
    float &operator[](i64 i) { return data_[static_cast<size_t>(i)]; }
    float operator[](i64 i) const { return data_[static_cast<size_t>(i)]; }

    /** Raw storage view. */
    Span<const float> data() const { return data_; }
    Span<float> data() { return data_; }

    /** Set every element to v. */
    void
    fill(float v)
    {
        std::fill(data_.begin(), data_.end(), v);
    }

    /**
     * Re-shape in place without shrinking the underlying buffer.
     *
     * This is the primitive scratch-arena reuse is built on: a slot
     * tensor cycles through many shapes across layers and frames, and
     * after it has grown to the largest one, subsequent reshapes are
     * allocation-free. Element values are unspecified afterwards —
     * callers are kernels that fully overwrite their output.
     */
    void
    reshape_to(const Shape &shape)
    {
        // Per-frame hot path: no message construction on success.
        if (shape.c < 0 || shape.h < 0 || shape.w < 0) {
            throw ConfigError("tensor dimensions must be non-negative");
        }
        const size_t n = static_cast<size_t>(shape.size());
        if (n > data_.capacity()) {
            note_buffer_allocation();
            // Grow to exactly n, not resize()'s geometric step: the
            // buffer then holds the largest shape and nothing more.
            data_.reserve(n);
        }
        shape_ = shape;
        data_.resize(n);
    }

    /**
     * Process-wide count of float-buffer allocations performed by
     * tensors (constructions, copies, and reshapes that had to grow).
     * The zero-steady-state-allocation tests snapshot this around
     * planned executions; it is monotonically increasing and only
     * ever approximately attributable under concurrency.
     */
    static u64
    buffer_allocations()
    {
        return alloc_count_().load(std::memory_order_relaxed);
    }

    /** View of one channel plane (h*w contiguous floats). */
    Span<const float>
    channel(i64 c) const
    {
        size_t plane = static_cast<size_t>(shape_.h * shape_.w);
        return Span<const float>(data_.data() + c * plane, plane);
    }

    bool
    operator==(const Tensor &o) const
    {
        return shape_ == o.shape_ && data_ == o.data_;
    }

  private:
    /**
     * Debug-only bounds assertion. The failure message is built only
     * on the failing path, so a passing check costs six comparisons
     * in Debug and nothing at all in Release.
     */
    void
    check_bounds(i64 c, i64 y, i64 x) const
    {
#ifndef NDEBUG
        if (c < 0 || c >= shape_.c || y < 0 || y >= shape_.h || x < 0 ||
            x >= shape_.w) {
            throw InternalError(
                "tensor index (" + std::to_string(c) + ", " +
                std::to_string(y) + ", " + std::to_string(x) +
                ") out of bounds for shape " + shape_.str());
        }
#else
        (void)c;
        (void)y;
        (void)x;
#endif
    }

    static std::atomic<u64> &
    alloc_count_()
    {
        static std::atomic<u64> count{0};
        return count;
    }

    static void
    note_buffer_allocation()
    {
        alloc_count_().fetch_add(1, std::memory_order_relaxed);
    }

    Shape shape_;
    std::vector<float> data_;
};

} // namespace eva2

#endif // EVA2_TENSOR_TENSOR_H
