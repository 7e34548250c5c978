// The CloudViews job-service benchmark. perfbench/run.py builds this
// binary from the repository's sources and runs it; see perfbench/README.md
// for the workloads and metrics.
//
//   cv_perfbench --workload tpcds99|recurring_wire|recurring_days
//                --seed N --seconds S --trace 0|1
//                [--state-dir DIR] [--commit ID]
//
// Prints context lines ('#'), one line per metric, and last a JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any job
// failed or produced an output that differs from its CloudViews-off
// reference, 2 on bad arguments.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "perfbench.h"

#ifndef CV_PERFBENCH_BUILD_TYPE
#define CV_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cv_perfbench --workload tpcds99|recurring_wire|"
               "recurring_days --seed N --seconds S --trace 0|1 "
               "[--state-dir DIR] [--commit ID]\n");
  return 2;
}

/// CPUs in this process's affinity mask.
int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudviews::perfbench;
  RunOptions opt;
  opt.nproc = AvailableCpus();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--state-dir") {
      opt.state_dir = value;
    } else if (flag == "--commit") {
      opt.commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return Usage();

  int (*run)(const RunOptions&, Report*) = nullptr;
  if (opt.workload == "tpcds99") run = RunTpcds99;
  if (opt.workload == "recurring_wire") run = RunRecurringWire;
  if (opt.workload == "recurring_days") run = RunRecurringDays;
  if (run == nullptr) return Usage();

  Report report;
  report.Note("workload=" + opt.workload + " seed=" + std::to_string(opt.seed) +
              " seconds=" + std::to_string(opt.seconds) +
              " trace=" + (opt.trace ? "1" : "0") +
              " nproc=" + std::to_string(opt.nproc) +
              " build_type=" CV_PERFBENCH_BUILD_TYPE " compiler=" __VERSION__
              " commit=" + opt.commit);
  const HostCpu cpu_before = ReadHostCpu();
  const int rc = run(opt, &report);
  report.Note(cloudviews::StrFormat("host steal over the run: %.1f%% of wanted CPU",
                        100 * StealShare(cpu_before, ReadHostCpu())));
  if (rc != 0) {
    std::fprintf(stderr, "cv_perfbench: workload %s could not run\n",
                 opt.workload.c_str());
    return 1;
  }
  report.Metric("failed_frac",
                report.attempted() > 0
                    ? static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted())
                    : 1.0,
                "fraction");
  report.Print();
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
