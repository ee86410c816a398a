#include "api/registry.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace eva2 {

namespace {

std::string
join(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty()) {
            out += ", ";
        }
        out += n;
    }
    return out;
}

} // namespace

bool
ComponentSpec::has(const std::string &key) const
{
    for (const auto &kv : params) {
        if (kv.first == key) {
            return true;
        }
    }
    return false;
}

std::string
ComponentSpec::str(const std::string &key,
                   const std::string &fallback) const
{
    for (const auto &kv : params) {
        if (kv.first == key) {
            return kv.second;
        }
    }
    return fallback;
}

double
ComponentSpec::number(const std::string &key, double fallback) const
{
    if (!has(key)) {
        return fallback;
    }
    const std::string v = str(key);
    char *end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    // strtod happily accepts "nan"/"inf"; a non-finite threshold
    // would make every comparison silently false downstream, exactly
    // the failure mode this layer exists to catch.
    require(end != v.c_str() && *end == '\0' && std::isfinite(parsed),
            "spec '" + text + "': parameter '" + key +
                "' is not a finite number: '" + v + "'");
    return parsed;
}

i64
ComponentSpec::integer(const std::string &key, i64 fallback) const
{
    if (!has(key)) {
        return fallback;
    }
    const std::string v = str(key);
    char *end = nullptr;
    errno = 0; // strtoll reports overflow only through errno.
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    require(end != v.c_str() && *end == '\0' && errno != ERANGE,
            "spec '" + text + "': parameter '" + key +
                "' is not an in-range integer: '" + v + "'");
    return static_cast<i64>(parsed);
}

void
ComponentSpec::allow_only(const std::vector<std::string> &keys) const
{
    for (const auto &kv : params) {
        if (std::find(keys.begin(), keys.end(), kv.first) ==
            keys.end()) {
            throw ConfigError(
                "spec '" + text + "': unknown parameter '" + kv.first +
                "' for kind '" + kind + "' (allowed: " + join(keys) +
                ")");
        }
    }
}

ComponentSpec
parse_component_spec(const std::string &text)
{
    ComponentSpec spec;
    spec.text = text;
    const size_t colon = text.find(':');
    spec.kind = text.substr(0, colon);
    require(!spec.kind.empty(), "component spec is empty: '" + text +
                                    "' (expected kind[:k=v,...])");
    if (colon == std::string::npos) {
        return spec;
    }
    const std::string rest = text.substr(colon + 1);
    require(!rest.empty(), "spec '" + text +
                               "': ':' must be followed by parameters");
    size_t pos = 0;
    while (pos <= rest.size()) {
        size_t comma = rest.find(',', pos);
        if (comma == std::string::npos) {
            comma = rest.size();
        }
        const std::string item = rest.substr(pos, comma - pos);
        const size_t eq = item.find('=');
        require(eq != std::string::npos && eq > 0 &&
                    eq + 1 < item.size(),
                "spec '" + text + "': malformed parameter '" + item +
                    "' (expected key=value)");
        const std::string key = item.substr(0, eq);
        for (const auto &kv : spec.params) {
            require(kv.first != key, "spec '" + text +
                                         "': duplicate parameter '" +
                                         key + "'");
        }
        spec.params.emplace_back(key, item.substr(eq + 1));
        if (comma == rest.size()) {
            break;
        }
        pos = comma + 1;
    }
    return spec;
}

// --------------------------------------------------------------------
// PolicyRegistry

PolicyRegistry::PolicyRegistry()
{
    // Run the full network on every frame: the no-AMC baseline and
    // the pipeline's default when no policy is supplied.
    add("every_frame", [](const ComponentSpec &spec) {
        spec.allow_only({});
        return std::make_unique<StaticRatePolicy>(1);
    });
    add("static", [](const ComponentSpec &spec) {
        spec.allow_only({"interval"});
        return std::make_unique<StaticRatePolicy>(
            spec.integer("interval", 4));
    });
    const Factory block_error = [](const ComponentSpec &spec) {
        spec.allow_only({"th", "max_gap"});
        return std::make_unique<BlockErrorPolicy>(
            spec.number("th", 0.02), spec.integer("max_gap", 0));
    };
    add("adaptive_error", block_error);
    add("block_error", block_error); // Paper's feature name (II-C4).
    const Factory motion = [](const ComponentSpec &spec) {
        spec.allow_only({"th", "max_gap"});
        return std::make_unique<MotionMagnitudePolicy>(
            spec.number("th", 100.0), spec.integer("max_gap", 0));
    };
    add("adaptive_motion", motion);
    add("motion_magnitude", motion);
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

void
PolicyRegistry::add(const std::string &kind, Factory factory)
{
    require(!kind.empty(), "policy registry: empty kind name");
    entries_[kind] = std::move(factory);
}

bool
PolicyRegistry::contains(const std::string &kind) const
{
    return entries_.count(kind) != 0;
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &e : entries_) {
        out.push_back(e.first);
    }
    return out;
}

std::unique_ptr<KeyFramePolicy>
PolicyRegistry::make(const std::string &spec_text) const
{
    const ComponentSpec spec = parse_component_spec(spec_text);
    const auto it = entries_.find(spec.kind);
    if (it == entries_.end()) {
        throw ConfigError("unknown key-frame policy '" + spec.kind +
                          "' in spec '" + spec_text +
                          "' (known: " + join(names()) + ")");
    }
    return it->second(spec);
}

std::function<std::unique_ptr<KeyFramePolicy>()>
PolicyRegistry::factory(const std::string &spec_text) const
{
    // Validate eagerly: a typo should fail at configuration time,
    // not on the first stream the factory is invoked for.
    make(spec_text);
    return [this, spec_text]() { return make(spec_text); };
}

// --------------------------------------------------------------------
// InterpRegistry

InterpRegistry::InterpRegistry()
{
    add("bilinear", InterpMode::kBilinear);
    add("nearest", InterpMode::kNearest);
}

InterpRegistry &
InterpRegistry::instance()
{
    static InterpRegistry registry;
    return registry;
}

void
InterpRegistry::add(const std::string &name, InterpMode mode)
{
    require(!name.empty(), "interp registry: empty name");
    entries_[name] = mode;
}

std::vector<std::string>
InterpRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &e : entries_) {
        out.push_back(e.first);
    }
    return out;
}

InterpMode
InterpRegistry::resolve(const std::string &name) const
{
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
        throw ConfigError("unknown interpolation mode '" + name +
                          "' (known: " + join(names()) + ")");
    }
    return it->second;
}

// --------------------------------------------------------------------
// CodecRegistry

CodecRegistry::CodecRegistry()
{
    add("rle_q88", [](const ComponentSpec &spec, AmcOptions &amc) {
        spec.allow_only({"prune"});
        amc.quantize_storage = true;
        amc.storage_prune_rel = spec.number("prune", 0.12);
        require(amc.storage_prune_rel >= 0.0,
                "codec spec '" + spec.text +
                    "': prune must be >= 0");
    });
    add("dense", [](const ComponentSpec &spec, AmcOptions &amc) {
        spec.allow_only({});
        amc.quantize_storage = false;
        amc.storage_prune_rel = 0.0;
    });
}

CodecRegistry &
CodecRegistry::instance()
{
    static CodecRegistry registry;
    return registry;
}

void
CodecRegistry::add(const std::string &kind, Applier applier)
{
    require(!kind.empty(), "codec registry: empty kind name");
    entries_[kind] = std::move(applier);
}

bool
CodecRegistry::contains(const std::string &kind) const
{
    return entries_.count(kind) != 0;
}

std::vector<std::string>
CodecRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &e : entries_) {
        out.push_back(e.first);
    }
    return out;
}

void
CodecRegistry::apply(const std::string &spec_text, AmcOptions &amc) const
{
    const ComponentSpec spec = parse_component_spec(spec_text);
    const auto it = entries_.find(spec.kind);
    if (it == entries_.end()) {
        throw ConfigError("unknown storage codec '" + spec.kind +
                          "' in spec '" + spec_text +
                          "' (known: " + join(names()) + ")");
    }
    it->second(spec, amc);
}

} // namespace eva2
