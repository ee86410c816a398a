/**
 * @file
 * Tests for the resident-session memory tier: the `memory=` spec,
 * ResidentSetManager bookkeeping (bytes, LRU order, hibernate/hydrate
 * counters), and the Engine-level contract — a hard budget enforced
 * by LRU hibernation that is *invisible to results*: every digest
 * must match a budget-less run bit for bit, for any input frames,
 * because hibernation keeps the RLE key activation and the u8 key
 * pixels verbatim and only drops what can be rebuilt from them. See
 * docs/resident_state.md.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "api/run_report.h"
#include "cnn/model_zoo.h"
#include "runtime/resident_set.h"
#include "sparse/rle.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

// --------------------------------------------------------------------
// memory= spec parsing

TEST(MemorySpec, ParsesOffAndBudgets)
{
    EXPECT_FALSE(resolve_memory_spec("off").enabled);
    EXPECT_FALSE(resolve_memory_spec("").enabled);

    const MemoryBudget plain = resolve_memory_spec("budget_mb:64");
    EXPECT_TRUE(plain.enabled);
    EXPECT_EQ(plain.budget_bytes, 64LL * 1024 * 1024);
    EXPECT_FALSE(plain.hibernate);

    const MemoryBudget hib =
        resolve_memory_spec("budget_mb:8,hibernate=on");
    EXPECT_TRUE(hib.enabled);
    EXPECT_EQ(hib.budget_bytes, 8LL * 1024 * 1024);
    EXPECT_TRUE(hib.hibernate);

    EXPECT_FALSE(
        resolve_memory_spec("budget_mb:8,hibernate=off").hibernate);
}

TEST(MemorySpec, RejectsMalformed)
{
    for (const char *bad :
         {"on", "budget:4", "budget_mb:", "budget_mb:0", "budget_mb:-3",
          "budget_mb:abc", "budget_mb:4x", "budget_mb:4,",
          "budget_mb:4,hibernate", "budget_mb:4,hibernate=maybe",
          "budget_mb:4,hibernate=on,extra=1"}) {
        EXPECT_THROW(resolve_memory_spec(bad), ConfigError) << bad;
    }
}

TEST(MemorySpec, HibernateRequiresQuantizingCodec)
{
    // The dense codec cannot round-trip through the compressed
    // hibernated form, so the combination is a config error — caught
    // at Engine construction, not at first eviction.
    const Network net = build_scaled(alexnet_spec());
    EngineConfig config;
    config.codec = "dense";
    config.memory = "budget_mb:64,hibernate=on";
    EXPECT_THROW(Engine(net, config), ConfigError);

    // Tracking without hibernation is fine with any codec.
    config.memory = "budget_mb:64";
    EXPECT_NO_THROW(Engine(net, config));
}

// --------------------------------------------------------------------
// ResidentSetManager bookkeeping

MemoryBudget
budget_of(i64 bytes, bool hibernate)
{
    MemoryBudget b;
    b.enabled = true;
    b.budget_bytes = bytes;
    b.hibernate = hibernate;
    return b;
}

TEST(ResidentSetManager, TracksBytesAndPeak)
{
    ResidentSetManager mgr(budget_of(1000, true));
    mgr.note_resident(0, 400);
    mgr.note_resident(1, 500);
    EXPECT_EQ(mgr.total_bytes(), 900);
    EXPECT_FALSE(mgr.over_budget());
    mgr.note_resident(2, 300);
    EXPECT_EQ(mgr.total_bytes(), 1200);
    EXPECT_TRUE(mgr.over_budget());
    // Re-reporting a session replaces its footprint, never adds.
    mgr.note_resident(1, 200);
    EXPECT_EQ(mgr.total_bytes(), 900);

    const MemoryStats stats = mgr.stats();
    EXPECT_EQ(stats.resident_bytes, 900);
    EXPECT_EQ(stats.peak_resident_bytes, 1200);
    EXPECT_EQ(stats.sessions_tracked, 3);
    EXPECT_EQ(stats.sessions_resident, 3);
    EXPECT_EQ(stats.sessions_hibernated, 0);
    EXPECT_DOUBLE_EQ(stats.bytes_per_session(), 300.0);
}

TEST(ResidentSetManager, VictimsFollowLruOrder)
{
    ResidentSetManager mgr(budget_of(10, true));
    mgr.note_resident(0, 100);
    mgr.note_resident(1, 100);
    mgr.note_resident(2, 100);
    EXPECT_EQ(mgr.victims(8, /*exclude=*/-1),
              (std::vector<i64>{0, 1, 2}));
    // Touching a session moves it to the MRU end...
    mgr.note_resident(0, 100);
    EXPECT_EQ(mgr.victims(8, -1), (std::vector<i64>{1, 2, 0}));
    // ...the committing session is excluded, and `max` truncates.
    EXPECT_EQ(mgr.victims(8, 2), (std::vector<i64>{1, 0}));
    EXPECT_EQ(mgr.victims(1, -1), (std::vector<i64>{1}));
}

TEST(ResidentSetManager, HibernationLeavesLruUntilNextTouch)
{
    ResidentSetManager mgr(budget_of(10, true));
    mgr.note_resident(0, 100);
    mgr.note_resident(1, 100);
    mgr.note_hibernated(0, 30);
    EXPECT_EQ(mgr.total_bytes(), 130);
    // A hibernated session is not a victim candidate.
    EXPECT_EQ(mgr.victims(8, -1), (std::vector<i64>{1}));
    EXPECT_EQ(mgr.hibernation_count(0), 1);
    EXPECT_EQ(mgr.hibernation_count(1), 0);

    MemoryStats stats = mgr.stats();
    EXPECT_EQ(stats.sessions_hibernated, 1);
    EXPECT_EQ(stats.sessions_resident, 1);
    EXPECT_EQ(stats.hibernations, 1);

    // Hydration restores the footprint, rejoins the LRU at the MRU
    // end, and records the latency sample.
    mgr.note_hydrated(0, 100, /*latency_us=*/250.0);
    EXPECT_EQ(mgr.total_bytes(), 200);
    EXPECT_EQ(mgr.victims(8, -1), (std::vector<i64>{1, 0}));
    stats = mgr.stats();
    EXPECT_EQ(stats.sessions_hibernated, 0);
    EXPECT_EQ(stats.hydrations, 1);
    EXPECT_DOUBLE_EQ(stats.hydrate_p50_us, 250.0);
    EXPECT_DOUBLE_EQ(stats.hydrate_p99_us, 250.0);
}

// --------------------------------------------------------------------
// Engine-level behaviour

/**
 * Shared fixture: a small network and proto streams of raw rendered
 * frames (not snapped to any grid), so digest identity after
 * hibernation is exact for arbitrary pixels.
 */
struct ResidentFixture
{
    Network net;
    std::vector<Sequence> protos;

    ResidentFixture()
        : net(build_scaled(alexnet_spec())),
          protos(multi_stream_set(/*seed=*/31, /*num_streams=*/3,
                                  /*frames_per_stream=*/4))
    {
    }

    EngineConfig
    config(const std::string &memory) const
    {
        EngineConfig c;
        c.policy = "static:interval=2";
        c.num_threads = 1;
        c.pipeline_depth = 1;
        c.memory = memory;
        return c;
    }

    /** Digest of each proto stream from a budget-less run. */
    std::vector<u64>
    control_digests(const EngineConfig &base) const
    {
        EngineConfig c = base;
        c.memory = "off";
        Engine engine(net, c);
        for (const Sequence &seq : protos) {
            engine.session(seq.name).submit_all(seq);
        }
        engine.flush();
        std::vector<u64> digests;
        for (const Sequence &seq : protos) {
            digests.push_back(engine.session(seq.name).report().digest);
        }
        return digests;
    }

    /**
     * Resident bytes of one fully-fed session under an effectively
     * unlimited budget: the fixture's unit for sizing real budgets.
     */
    i64
    probe_session_bytes() const
    {
        Engine engine(net, config("budget_mb:1048576"));
        engine.session("probe").submit_all(protos[0]);
        engine.flush();
        const i64 bytes = engine.resident_manager()->stats().resident_bytes;
        EXPECT_GT(bytes, 0);
        return bytes;
    }
};

TEST(ResidentTier, ReportCarriesMemorySection)
{
    ResidentFixture fx;
    Engine engine(fx.net, fx.config("budget_mb:4,hibernate=on"));
    engine.session(fx.protos[0].name).submit_all(fx.protos[0]);
    engine.flush();

    const RunReport report = engine.report();
    EXPECT_EQ(report.memory_spec, "budget_mb:4,hibernate=on");
    EXPECT_EQ(report.memory.budget_bytes, 4LL * 1024 * 1024);
    EXPECT_TRUE(report.memory.hibernate);
    EXPECT_GT(report.memory.resident_bytes, 0);
    EXPECT_EQ(report.memory.sessions_tracked, 1);

    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"memory\""), std::string::npos);
    EXPECT_NE(json.find("\"resident_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"hydrate_p99_us\""), std::string::npos);

    // memory=off engines report a disabled section, not garbage.
    Engine off(fx.net, fx.config("off"));
    off.session("cam").submit_all(fx.protos[0]);
    off.flush();
    EXPECT_EQ(off.report().memory.budget_bytes, 0);
    EXPECT_EQ(off.resident_manager(), nullptr);
    EXPECT_FALSE(off.memory_pressure());
}

TEST(ResidentTier, MemoryPressureWithoutHibernationSignalsShed)
{
    // budget_mb:N without hibernate=on never touches session state;
    // it only raises memory_pressure(), which the serving front end
    // turns into SHED/memory for new frames.
    ResidentFixture fx;
    const i64 per = fx.probe_session_bytes();
    const i64 budget = 1LL * 1024 * 1024;
    const i64 sessions = budget / per + 2;

    Engine engine(fx.net, fx.config("budget_mb:1"));
    for (i64 i = 0; i < sessions; ++i) {
        Session &s = engine.session("cam" + std::to_string(i));
        s.submit_all(fx.protos[i % fx.protos.size()]);
    }
    engine.flush();
    EXPECT_TRUE(engine.memory_pressure());
    EXPECT_GT(engine.report().memory.resident_bytes, budget);
    // No hibernation tier: nothing was evicted.
    EXPECT_EQ(engine.report().memory.hibernations, 0);
}

TEST(ResidentTier, HibernationEnforcesBudgetInLruOrder)
{
    ResidentFixture fx;
    const i64 per = fx.probe_session_bytes();
    const i64 budget = 1LL * 1024 * 1024;
    // Enough sessions that their full-resident forms overflow the
    // budget by at least two sessions' worth.
    const i64 sessions = budget / per + 3;

    Engine engine(fx.net, fx.config("budget_mb:1,hibernate=on"));
    std::vector<Session *> all;
    for (i64 i = 0; i < sessions; ++i) {
        Session &s = engine.session("cam" + std::to_string(i));
        s.submit_all(fx.protos[i % fx.protos.size()]);
        engine.flush(); // Strict LRU order: one session at a time.
        all.push_back(&s);
    }

    const ResidentSetManager *mgr = engine.resident_manager();
    ASSERT_NE(mgr, nullptr);
    const MemoryStats stats = mgr->stats();
    EXPECT_GT(stats.hibernations, 0);
    EXPECT_LE(stats.resident_bytes, budget);
    EXPECT_FALSE(engine.memory_pressure());

    // Eviction must have walked the LRU order: the hibernated set is
    // a prefix of submission order — no session sleeps while a
    // less-recently-used one stays resident.
    bool seen_resident = false;
    i64 hibernated = 0;
    for (Session *s : all) {
        const bool hib = mgr->hibernation_count(s->index()) > 0;
        if (hib) {
            EXPECT_FALSE(seen_resident)
                << "session " << s->name()
                << " hibernated after a less-recently-used session "
                   "was left resident";
            ++hibernated;
        } else {
            seen_resident = true;
        }
    }
    EXPECT_GT(hibernated, 0);
    // The most recently used session must never be the victim.
    EXPECT_EQ(mgr->hibernation_count(all.back()->index()), 0);
}

TEST(ResidentTier, HibernateHydrateDigestIdentityAcrossConfigs)
{
    // The tier's core contract: for every policy x kernel config, a
    // budget so tight that sessions hibernate and rehydrate
    // mid-stream must reproduce the budget-less digests bit for bit.
    ResidentFixture fx;
    struct Case
    {
        const char *policy;
        const char *kernel;
    };
    const Case cases[] = {
        {"static:interval=2", "gemm"},
        {"static:interval=2", "tuned:budget_us=1000"},
        {"adaptive_error:th=0.05,max_gap=8", "gemm"},
    };
    const i64 per = fx.probe_session_bytes();
    const i64 budget = 1LL * 1024 * 1024;
    const i64 sessions = budget / per + 3;
    const i64 frames = fx.protos[0].size();

    for (const Case &c : cases) {
        EngineConfig config = fx.config("budget_mb:1,hibernate=on");
        config.policy = c.policy;
        config.kernel = c.kernel;
        const std::vector<u64> expected = fx.control_digests(config);

        Engine engine(fx.net, config);
        std::vector<Session *> all;
        for (i64 i = 0; i < sessions; ++i) {
            all.push_back(
                &engine.session("cam" + std::to_string(i)));
        }
        // Pass-major submission: every session goes idle between its
        // first and second half, so LRU eviction hits sessions that
        // will come back — the hibernate -> hydrate -> predict path.
        for (i64 pass = 0; pass < 2; ++pass) {
            for (i64 i = 0; i < sessions; ++i) {
                const Sequence &seq =
                    fx.protos[i % fx.protos.size()];
                for (i64 f = pass * frames / 2;
                     f < (pass + 1) * frames / 2; ++f) {
                    all[i]->submit(seq[f].image);
                }
            }
        }
        engine.flush();

        const MemoryStats stats = engine.resident_manager()->stats();
        EXPECT_GT(stats.hibernations, 0)
            << c.policy << "/" << c.kernel;
        EXPECT_GT(stats.hydrations, 0) << c.policy << "/" << c.kernel;

        for (i64 i = 0; i < sessions; ++i) {
            EXPECT_EQ(all[i]->report().digest,
                      expected[i % fx.protos.size()])
                << "session " << i << " under " << c.policy << "/"
                << c.kernel;
        }
    }
}

TEST(ResidentTier, HibernatingBetweenEveryFrameKeepsDigests)
{
    // Round-robin one frame per session over more sessions than the
    // budget holds: LRU eviction then hibernates every session
    // between each pair of its frames, and every next frame hydrates
    // it. On raw (unsnapped) frames, every frame's RFBME match error
    // and op count — computed against the key pixels that went
    // through hibernation — and every stream digest must equal a
    // budget-less engine fed the same way, under a policy that runs
    // RFBME on every frame and one that keys every other frame.
    ResidentFixture fx;
    // Sized by the smallest footprint, a session fed only its first
    // (key) frame, so even the first pass overflows the budget.
    Engine probe(fx.net, fx.config("budget_mb:1048576"));
    probe.session("probe").submit(fx.protos[0][0].image);
    probe.flush();
    const i64 per = probe.resident_manager()->stats().resident_bytes;
    ASSERT_GT(per, 0);
    const i64 sessions = 1LL * 1024 * 1024 / per + 3;
    const i64 frames = fx.protos[0].size();
    for (const char *policy :
         {"adaptive_error:th=0.05,max_gap=8", "static:interval=2"}) {
        struct Fed
        {
            std::vector<FrameOutcome> outcomes;
            std::vector<u64> digests;
            std::vector<i64> hibernations;
        };
        const auto feed = [&](const std::string &memory) {
            EngineConfig config = fx.config(memory);
            config.policy = policy;
            Engine engine(fx.net, config);
            std::vector<Session *> all;
            for (i64 i = 0; i < sessions; ++i) {
                all.push_back(&engine.session("cam" + std::to_string(i)));
            }
            Fed fed;
            for (i64 f = 0; f < frames; ++f) {
                for (i64 i = 0; i < sessions; ++i) {
                    const FrameTicket t = all[i]->submit(
                        fx.protos[i % fx.protos.size()][f].image);
                    fed.outcomes.push_back(all[i]->wait(t));
                }
            }
            const ResidentSetManager *mgr = engine.resident_manager();
            for (Session *s : all) {
                fed.digests.push_back(s->report().digest);
                fed.hibernations.push_back(
                    mgr ? mgr->hibernation_count(s->index()) : 0);
            }
            return fed;
        };
        const Fed control = feed("off");
        const Fed hib = feed("budget_mb:1,hibernate=on");
        for (i64 i = 0; i < sessions; ++i) {
            EXPECT_GE(hib.hibernations[i], frames - 1)
                << "session " << i << " under " << policy;
            EXPECT_EQ(hib.digests[i], control.digests[i])
                << "session " << i << " under " << policy;
        }
        ASSERT_EQ(hib.outcomes.size(), control.outcomes.size());
        for (size_t k = 0; k < hib.outcomes.size(); ++k) {
            EXPECT_EQ(hib.outcomes[k].is_key, control.outcomes[k].is_key)
                << "frame " << k << " under " << policy;
            EXPECT_EQ(hib.outcomes[k].match_error,
                      control.outcomes[k].match_error)
                << "frame " << k << " under " << policy;
            EXPECT_EQ(hib.outcomes[k].me_add_ops,
                      control.outcomes[k].me_add_ops)
                << "frame " << k << " under " << policy;
        }
    }
}

TEST(ResidentTier, BatchRunHydratesAndMatchesBudgetlessDigest)
{
    // run() feeds sessions, which hydrate on submit: a run() after a
    // session-mode phase that hibernated every proto stream still
    // matches the budget-less engine doing the same work.
    ResidentFixture fx;
    const i64 per = fx.probe_session_bytes();
    const i64 fillers = 1LL * 1024 * 1024 / per + 3;
    std::vector<Sequence> first, second;
    for (const Sequence &seq : fx.protos) {
        Sequence a, b;
        a.name = b.name = seq.name;
        for (i64 i = 0; i < seq.size(); ++i) {
            ((i < seq.size() / 2) ? a : b).frames.push_back(seq[i]);
        }
        first.push_back(std::move(a));
        second.push_back(std::move(b));
    }
    // Session phase: the protos' first halves, then enough filler
    // sessions to push the (now idle, least recently used) protos
    // out of the budget.
    auto session_phase = [&](Engine &engine) {
        for (const Sequence &seq : first) {
            engine.session(seq.name).submit_all(seq);
        }
        for (i64 i = 0; i < fillers; ++i) {
            engine.session("filler" + std::to_string(i))
                .submit_all(fx.protos[i % fx.protos.size()]);
        }
        engine.flush();
    };

    Engine off(fx.net, fx.config("off"));
    session_phase(off);
    const u64 expected = off.run(second).digest;

    Engine engine(fx.net, fx.config("budget_mb:1,hibernate=on"));
    session_phase(engine);
    const ResidentSetManager *mgr = engine.resident_manager();
    for (const Sequence &seq : first) {
        EXPECT_GE(mgr->hibernation_count(
                      engine.find_session(seq.name)->index()),
                  1)
            << seq.name << " was not hibernated";
    }
    const i64 hydrations_before = mgr->stats().hydrations;
    EXPECT_EQ(engine.run(second).digest, expected);
    // Only the sessions run() feeds wake up, not the idle fillers.
    EXPECT_EQ(mgr->stats().hydrations - hydrations_before,
              static_cast<i64>(second.size()));
}

TEST(ResidentTier, RunEnforcesTheBudget)
{
    // Regression: run() must go through the same memory accounting
    // as session submission — every stream tracked, LRU hibernation
    // under the budget, digests unchanged.
    ResidentFixture fx;
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/41, /*num_streams=*/16,
                         /*frames_per_stream=*/4);
    const i64 budget = 1LL * 1024 * 1024;

    Engine off(fx.net, fx.config("off"));
    const u64 expected = off.run(streams).digest;

    Engine engine(fx.net, fx.config("budget_mb:1,hibernate=on"));
    const RunReport report = engine.run(streams);
    EXPECT_EQ(report.digest, expected);
    const MemoryStats stats = engine.resident_manager()->stats();
    EXPECT_EQ(stats.sessions_tracked, 16);
    EXPECT_GT(stats.hibernations, 0);
    EXPECT_LE(stats.resident_bytes, budget);
    EXPECT_FALSE(engine.memory_pressure());
    EXPECT_EQ(report.memory.sessions_tracked, 16);
}

TEST(ResidentTier, ResetForgetsTrackedSessions)
{
    ResidentFixture fx;
    Engine engine(fx.net, fx.config("budget_mb:4,hibernate=on"));
    engine.session("cam").submit_all(fx.protos[0]);
    engine.flush();
    EXPECT_GT(engine.resident_manager()->stats().resident_bytes, 0);

    engine.reset();
    const MemoryStats stats = engine.resident_manager()->stats();
    EXPECT_EQ(stats.resident_bytes, 0);
    EXPECT_EQ(stats.sessions_tracked, 0);
}

} // namespace
} // namespace eva2
