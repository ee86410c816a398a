/**
 * @file
 * String-keyed registries behind the eva2::Engine serving API.
 *
 * A serving process configures itself from flags, config files, or
 * RPC payloads — strings, not C++ enums and std::function factories.
 * Every tunable component therefore resolves through a registry from
 * a compact spec string of the form
 *
 *     kind:key=value,key=value
 *
 * e.g. `adaptive_error:th=0.05,max_gap=8`, `static:interval=4`,
 * `rle_q88:prune=0.12`, `bilinear`. Unknown kinds and unknown or
 * malformed parameters fail loudly with a ConfigError naming the
 * alternatives, so a typo in a deployment config cannot silently
 * select a default.
 *
 * Registries ship with the built-in entries and accept additional
 * registrations (tests and downstream embedders). Registration is
 * not thread-safe; perform it at startup. Lookup is const and safe
 * to call concurrently.
 */
#ifndef EVA2_API_REGISTRY_H
#define EVA2_API_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/amc_pipeline.h"
#include "core/keyframe_policy.h"
#include "core/warp.h"

namespace eva2 {

/** A parsed `kind:key=value,...` component spec. */
struct ComponentSpec
{
    std::string kind;
    /** Parameters in spec order (duplicates rejected at parse). */
    std::vector<std::pair<std::string, std::string>> params;

    bool has(const std::string &key) const;

    /** String parameter, or `fallback` when absent. */
    std::string str(const std::string &key,
                    const std::string &fallback = "") const;

    /** Floating-point parameter; throws ConfigError on bad syntax. */
    double number(const std::string &key, double fallback) const;

    /** Integer parameter; throws ConfigError on bad syntax. */
    i64 integer(const std::string &key, i64 fallback) const;

    /**
     * Reject parameters outside the allowed set — catches typos like
     * `threshold=` where `th=` was meant.
     */
    void allow_only(const std::vector<std::string> &keys) const;

    /** The canonical `kind:k=v,...` string this spec was parsed from. */
    std::string text;
};

/** Parse a component spec string; throws ConfigError on bad syntax. */
ComponentSpec parse_component_spec(const std::string &text);

/**
 * Key-frame policy registry. A spec resolves to a *factory* rather
 * than an instance because policies are stateful and per-stream: the
 * Engine calls the factory once per stream.
 */
class PolicyRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<KeyFramePolicy>(
        const ComponentSpec &spec)>;

    /** The process-wide registry with built-ins preloaded. */
    static PolicyRegistry &instance();

    /** Register (or replace) a policy kind. */
    void add(const std::string &kind, Factory factory);

    bool contains(const std::string &kind) const;

    /** Registered kind names, sorted. */
    std::vector<std::string> names() const;

    /** Build one policy instance from a spec string. */
    std::unique_ptr<KeyFramePolicy>
    make(const std::string &spec) const;

    /**
     * A reusable zero-argument factory for a spec — the shape
     * eval/experiment's sweep harnesses consume. The spec is parsed
     * and validated once, eagerly, so a bad string fails here and
     * not on stream N.
     */
    std::function<std::unique_ptr<KeyFramePolicy>()>
    factory(const std::string &spec) const;

  private:
    PolicyRegistry();

    std::map<std::string, Factory> entries_;
};

/**
 * Interpolation-mode registry: `bilinear` (Section II-C3's choice)
 * or `nearest` (the cheap alternative it is compared against).
 */
class InterpRegistry
{
  public:
    static InterpRegistry &instance();

    void add(const std::string &name, InterpMode mode);

    std::vector<std::string> names() const;

    /** Resolve a name; throws ConfigError listing alternatives. */
    InterpMode resolve(const std::string &name) const;

  private:
    InterpRegistry();

    std::map<std::string, InterpMode> entries_;
};

/**
 * CNN execution kernel registry. A kernel spec configures how the
 * compiled execution plans run the network's layers; its applier
 * rewrites the PlanOptions embedded in an AmcOptions.
 *
 * Built-ins:
 *   `gemm`                   im2col + blocked-GEMM convolutions on the
 *                            bit-exact SIMD tile (the scalar reference
 *                            tile without SIMD), each fused with a
 *                            following ReLU; bit-identical to the
 *                            reference Network::forward. The default.
 *   `tuned[:budget_us=N]`    gemm plus per-shape autotuning of the
 *                            conv GEMM tile and the FC dot kernel
 *                            (bounded divergence, not bit-exact).
 *
 * Any other kind or parameter throws ConfigError.
 */
class KernelRegistry
{
  public:
    using Applier =
        std::function<void(const ComponentSpec &spec, PlanOptions &plan)>;

    static KernelRegistry &instance();

    void add(const std::string &kind, Applier applier);

    bool contains(const std::string &kind) const;

    std::vector<std::string> names() const;

    /** Apply a kernel spec to plan options. */
    void apply(const std::string &spec, PlanOptions &plan) const;

  private:
    KernelRegistry();

    std::map<std::string, Applier> entries_;
};

/**
 * Key-activation storage codec registry. A codec spec configures how
 * the key frame activation buffer stores the target activation; its
 * applier rewrites the storage-related fields of an AmcOptions
 * (quantize_storage, storage_prune_rel).
 *
 * Built-ins:
 *   `rle_q88[:prune=R]`  Q8.8 RLE with near-zero pruning at R times
 *                        the activation RMS (the hardware's codec;
 *                        default prune 0.12).
 *   `dense`              no quantization, no pruning — isolates
 *                        algorithmic error in experiments.
 */
class CodecRegistry
{
  public:
    using Applier =
        std::function<void(const ComponentSpec &spec, AmcOptions &amc)>;

    static CodecRegistry &instance();

    void add(const std::string &kind, Applier applier);

    bool contains(const std::string &kind) const;

    std::vector<std::string> names() const;

    /** Apply a codec spec to pipeline options. */
    void apply(const std::string &spec, AmcOptions &amc) const;

  private:
    CodecRegistry();

    std::map<std::string, Applier> entries_;
};

} // namespace eva2

#endif // EVA2_API_REGISTRY_H
