// perfbench — runs one workload and prints its metrics.
//
//   perfbench --workload <campaign|serve_mix|epoch_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// The last line of stdout is the JSON result: the end-to-end metrics with
// --trace 0, the per-layer metrics (from an in-memory span trace, written to
// <dir>/spans_<workload>.csv) with --trace 1. Exits 1 when an output check
// fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <malloc.h>

#include "common/log.h"
#include "workloads.h"

using namespace perfbench;

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out") {
      opt.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  Report (*run)(const Options&) = nullptr;
  if (opt.workload == "campaign") run = run_campaign;
  if (opt.workload == "serve_mix") run = run_serve_mix;
  if (opt.workload == "epoch_churn") run = run_epoch_churn;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (campaign, serve_mix, epoch_churn)\n",
                 opt.workload.c_str());
    return 2;
  }
  sompi::set_log_level(sompi::LogLevel::kWarn);
  // glibc gives each allocating thread its own arena, up to 8 per core; which
  // of the serving stack's ~14 threads allocates first then decides how much
  // freed memory is reused, and serve_mix's peak RSS moved ±10% run to run.
  // One arena per core of the 4-core reference box keeps it within a few %.
  mallopt(M_ARENA_MAX, 4);
  if (opt.trace) std::filesystem::create_directories(opt.out_dir);

  std::printf("workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  const Report report = run(opt);
  report.print(opt.trace);
  return report.correct() ? 0 : 1;
}
