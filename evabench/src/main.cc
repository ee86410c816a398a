/**
 * @file
 * evabench: run one named workload from a seed and print every
 * metric by name with its unit, then one JSON result line.
 *
 *   evabench --workload amc_cams|plain_cams|fleet_net --seed N
 *            --seconds S --trace 0|1
 *   evabench --self-test
 *
 * The last line of standard output is the full result object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}},
 * "problems": [...]}. evabench/run.py builds this program, runs it
 * and narrows the metrics to those BENCHMARK.json declares.
 */
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "util/json.h"
#include "workloads.h"

using namespace evabench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "evabench: " << why << "\n"
              << "usage: evabench --workload amc_cams|plain_cams|fleet_net "
                 "--seed N --seconds S --trace 0|1\n"
              << "       evabench --self-test\n";
    std::exit(2);
}

void
print_result(const RunResult &r)
{
    std::printf("\nmetrics:\n");
    for (const Metric &m : r.metrics) {
        std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    for (const std::string &p : r.problems) {
        std::printf("problem: %s\n", p.c_str());
    }
    eva2::JsonWriter w(0);
    w.begin_object();
    w.member("correct", r.correct);
    w.member("attempted", r.attempted);
    w.member("failed", r.failed);
    w.key("metrics").begin_object();
    for (const Metric &m : r.metrics) {
        w.key(m.name).begin_object();
        w.member("value", m.value);
        w.member("unit", m.unit);
        w.end_object();
    }
    w.end_object();
    w.key("problems").begin_array();
    for (const std::string &p : r.problems) {
        w.value(p);
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool self_test = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage("missing value after " + a);
            }
            return argv[++i];
        };
        if (a == "--workload") {
            opts.workload = next();
        } else if (a == "--seed") {
            opts.seed = std::strtoull(next().c_str(), nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            opts.seconds = std::atof(next().c_str());
        } else if (a == "--trace") {
            opts.trace = next() != "0";
        } else if (a == "--self-test") {
            self_test = true;
        } else {
            usage("unknown argument " + a);
        }
    }

    if (self_test) {
        std::string why;
        const bool ok = open_loop_self_test(&why);
        std::printf("open-loop generator self-test: %s%s\n",
                    ok ? "PASS" : "FAIL: ", why.c_str());
        return ok ? 0 : 1;
    }
    if (!have_seed || opts.seconds <= 0.0) {
        usage("--seed and a positive --seconds are required");
    }
    if (opts.trace) {
        ::mkdir(kTraceDir, 0755);
    }

    RunResult result;
    try {
        if (opts.workload == "amc_cams") {
            result = run_cams(opts, /*amc=*/true);
        } else if (opts.workload == "plain_cams") {
            result = run_cams(opts, /*amc=*/false);
        } else if (opts.workload == "fleet_net") {
            result = run_fleet(opts);
        } else {
            usage("unknown workload '" + opts.workload + "'");
        }
    } catch (const std::exception &e) {
        std::cerr << "evabench: " << opts.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    log_phase("done");
    print_result(result);
    return result.correct ? 0 : 1;
}
