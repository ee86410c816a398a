#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/json.h"

namespace evabench {

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const double idx = p * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double
mean(const std::vector<double> &samples)
{
    double sum = 0.0;
    for (const double x : samples) {
        sum += x;
    }
    return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double
process_cpu_ms()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) * 1e-3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return static_cast<double>(std::atoll(line.c_str() + 6)) /
                   1024.0;
        }
    }
    return 0.0;
}

double
RunResult::get(const std::string &name) const
{
    for (const Metric &m : metrics) {
        if (m.name == name) {
            return m.value;
        }
    }
    return 0.0;
}

void
write_trace(const TraceRecorder &trace, const std::string &tag,
            RunResult &out)
{
    const std::string path =
        std::string(kTraceDir) + "/trace_" + tag + ".json";
    if (trace.write_chrome_json(path)) {
        std::printf("trace: %lld spans -> %s\n",
                    static_cast<long long>(trace.size()), path.c_str());
    } else {
        out.fail("could not write " + path);
    }
}

void
log_phase(const std::string &what)
{
    static const Clock::time_point start = Clock::now();
    std::fprintf(stderr, "[evabench %7.2fs] %s\n",
                 ms_between(start, Clock::now()) * 1e-3, what.c_str());
}

i64
thread_tid()
{
    static std::atomic<i64> next{1};
    thread_local const i64 tid = next.fetch_add(1);
    return tid;
}

TraceRecorder::TraceRecorder(bool enabled, Clock::time_point origin)
    : enabled_(enabled), origin_(origin)
{
    if (enabled_) {
        eva2::MutexLock lock(mutex_);
        spans_.reserve(1 << 16);
    }
}

u64
TraceRecorder::next_id()
{
    if (!enabled_) {
        return 0;
    }
    eva2::MutexLock lock(mutex_);
    return next_id_++;
}

u64
TraceRecorder::add(const std::string &name, Clock::time_point start,
                   Clock::time_point end, i64 stream, i64 frame,
                   u64 parent, u64 id)
{
    if (!enabled_) {
        return 0;
    }
    Span s;
    s.parent = parent;
    s.name = name;
    s.start_us = ms_between(origin_, start) * 1e3;
    s.end_us = ms_between(origin_, end) * 1e3;
    s.tid = thread_tid();
    s.frame = frame;
    s.stream = stream;
    eva2::MutexLock lock(mutex_);
    s.id = id != 0 ? id : next_id_++;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

i64
TraceRecorder::size() const
{
    eva2::MutexLock lock(mutex_);
    return static_cast<i64>(spans_.size());
}

bool
TraceRecorder::write_chrome_json(const std::string &path) const
{
    eva2::JsonWriter w(0);
    w.begin_object();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").begin_array();
    {
        eva2::MutexLock lock(mutex_);
        for (const Span &s : spans_) {
            w.begin_object();
            w.member("name", s.name);
            w.member("ph", "X");
            w.member("ts", s.start_us);
            w.member("dur", std::max(0.0, s.end_us - s.start_us));
            w.member("pid", i64{1});
            w.member("tid", s.tid);
            w.key("args").begin_object();
            w.member("id", s.id);
            w.member("parent", s.parent);
            w.member("frame", s.frame);
            w.member("stream", s.stream);
            w.member("end_us", s.end_us);
            w.end_object();
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    std::ofstream out(path);
    out << w.str() << "\n";
    return static_cast<bool>(out);
}

} // namespace evabench
