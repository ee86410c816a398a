/**
 * @file
 * Pointwise and structural operations on tensors: translation (the
 * fundamental transform of activation motion compensation), arithmetic,
 * and comparison metrics used by tests and experiments.
 */
#ifndef EVA2_TENSOR_TENSOR_OPS_H
#define EVA2_TENSOR_TENSOR_OPS_H

#include "tensor/tensor.h"

namespace eva2 {

/**
 * Translate every channel of a tensor by an integer offset, filling
 * revealed regions with zero. A positive dx moves content to the right;
 * a positive dy moves content down. This is the exact discrete
 * counterpart of the paper's vector-field transform delta(x) for a
 * uniform field.
 */
Tensor translate(const Tensor &t, i64 dy, i64 dx);

/** Elementwise sum; shapes must match. */
Tensor add(const Tensor &a, const Tensor &b);

/** Elementwise difference a - b; shapes must match. */
Tensor sub(const Tensor &a, const Tensor &b);

/** Multiply every element by s. */
Tensor scale(const Tensor &t, float s);

/** Clamp all elements below zero (ReLU as a free function). */
Tensor relu(const Tensor &t);

/** Largest absolute elementwise difference between two tensors. */
double max_abs_diff(const Tensor &a, const Tensor &b);

/** Mean absolute elementwise difference between two tensors. */
double mean_abs_diff(const Tensor &a, const Tensor &b);

/** Sum of all elements. */
double sum(const Tensor &t);

/**
 * Sum of squared elements, accumulated in eight independent stripes
 * reduced pairwise. The striping breaks the serial add dependence
 * that makes a naive left-to-right loop latency-bound (the RMS prune
 * threshold on the key-frame hot path), while staying deterministic
 * and portable: the summation order is fixed, so SIMD and non-SIMD
 * builds produce the identical double.
 */
double sum_squares(const float *x, i64 n);

/** sum_squares over a whole tensor. */
double sum_squares(const Tensor &t);

/** Fraction of elements with |v| <= threshold. */
double zero_fraction(const Tensor &t, float threshold = 0.0f);

/**
 * True when every elementwise difference is within tol. Used by
 * property tests for the convolution/translation commutativity
 * identity (Figure 3).
 */
bool all_close(const Tensor &a, const Tensor &b, double tol = 1e-5);

/**
 * Bilinear sample of a single channel at a fractional coordinate,
 * with zero padding outside the tensor bounds. (y, x) are in row,
 * column order.
 */
float bilinear_sample(const Tensor &t, i64 c, double y, double x);

} // namespace eva2

#endif // EVA2_TENSOR_TENSOR_OPS_H
