#include "runtime/stream_executor.h"

#include <cstring>

namespace eva2 {

namespace {

constexpr u64 kFnvOffset = kDigestSeed;
constexpr u64 kFnvPrime = 1099511628211ull;

u64
fnv1a(const void *data, size_t bytes, u64 hash)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= kFnvPrime;
    }
    return hash;
}

} // namespace

u64
digest_combine(u64 a, u64 b)
{
    return fnv1a(&b, sizeof(b), a);
}

u64
tensor_digest(const Tensor &t)
{
    u64 hash = kFnvOffset;
    const Shape s = t.shape();
    hash = fnv1a(&s.c, sizeof(s.c), hash);
    hash = fnv1a(&s.h, sizeof(s.h), hash);
    hash = fnv1a(&s.w, sizeof(s.w), hash);
    // Hash the value *bits*, so the digest distinguishes -0.0f/0.0f
    // and any rounding difference a reordered reduction would cause.
    for (i64 i = 0; i < t.size(); ++i) {
        u32 bits;
        const float v = t[i];
        std::memcpy(&bits, &v, sizeof(bits));
        hash = fnv1a(&bits, sizeof(bits), hash);
    }
    return hash;
}

} // namespace eva2
