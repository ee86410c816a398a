/**
 * @file
 * Reusable activation storage for planned CNN execution.
 *
 * A ScratchArena owns a small set of slot tensors that compiled
 * ExecutionPlans cycle activations through (ping-pong between two
 * activation slots; batched plans add a GEMM output slot). Slots
 * grow to the largest shape ever requested and are then reshaped
 * allocation-free (`Tensor::reshape_to`), so a plan executing frame
 * after frame performs zero steady-state heap allocations.
 *
 * Ownership model: one arena per worker thread. Arenas are not
 * synchronized — a pipeline runs on exactly one thread at a time, and
 * the runtime's stream-level workers each use their own thread's
 * arena (`for_current_thread`), so any number of streams share a
 * bounded O(threads x largest-activation) memory footprint instead of
 * O(streams).
 */
#ifndef EVA2_TENSOR_SCRATCH_ARENA_H
#define EVA2_TENSOR_SCRATCH_ARENA_H

#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace eva2 {

/** A growable set of reusable slot tensors (see file comment). */
class ScratchArena
{
  public:
    ScratchArena() = default;

    ScratchArena(const ScratchArena &) = delete;
    ScratchArena &operator=(const ScratchArena &) = delete;

    /**
     * The slot tensor with the given id, reshaped to `shape`. Slots
     * are created on first use; tensor addresses are stable across
     * later slot() calls (plans hold references to several slots at
     * once). Contents are unspecified — callers fully overwrite.
     */
    Tensor &
    slot(i64 id, const Shape &shape)
    {
        // Per-frame hot path: no message construction on success.
        if (id < 0) {
            throw ConfigError("scratch arena: negative slot id");
        }
        while (static_cast<i64>(slots_.size()) <= id) {
            slots_.push_back(std::make_unique<Tensor>());
        }
        Tensor &t = *slots_[static_cast<size_t>(id)];
        t.reshape_to(shape);
        return t;
    }

    /** The slot tensor if it exists, else null (aliasing checks). */
    const Tensor *
    peek(i64 id) const
    {
        if (id < 0 || id >= static_cast<i64>(slots_.size())) {
            return nullptr;
        }
        return slots_[static_cast<size_t>(id)].get();
    }

    /**
     * Pre-create slots [0, count) as empty tensors. An arena shared
     * across threads with per-slot ownership (the FramePlan slot
     * ring: each in-flight frame owns one slot) must create every
     * slot up front — slot() growing the slot vector while another
     * thread peek()s it would race on the vector's buffer. Slot
     * *contents* need no such care; distinct slots are distinct
     * tensors.
     */
    void
    ensure_slots(i64 count)
    {
        while (static_cast<i64>(slots_.size()) < count) {
            slots_.push_back(std::make_unique<Tensor>());
        }
    }

    /** Slots created so far. */
    i64 num_slots() const { return static_cast<i64>(slots_.size()); }

    /** Bytes currently held across all slot buffers. */
    u64
    bytes_reserved() const
    {
        u64 bytes = 0;
        for (const auto &t : slots_) {
            bytes += static_cast<u64>(t->size()) * sizeof(float);
        }
        return bytes;
    }

    /** Release all slot storage (arenas rarely need this). */
    void clear() { slots_.clear(); }

    /**
     * Release every slot's buffer while keeping the slot tensors
     * themselves alive — move-assigning an empty Tensor frees the
     * heap buffer but the unique_ptr (and thus the address plans and
     * readers hold) is untouched. This is what stream reset and
     * session hibernation use to return slot memory without violating
     * the address-stability contract of slot()/peek().
     */
    void
    release_slots()
    {
        for (auto &t : slots_) {
            *t = Tensor();
        }
    }

    /**
     * The calling thread's arena, created lazily. Worker threads of
     * the runtime's pools each get their own instance, which is what
     * bounds planned-execution memory by the worker count; it is
     * destroyed at thread exit.
     */
    static ScratchArena &for_current_thread();

  private:
    std::vector<std::unique_ptr<Tensor>> slots_;
};

} // namespace eva2

#endif // EVA2_TENSOR_SCRATCH_ARENA_H
