// Property-based scenario fuzzer over the fault-injection subsystem.
//
// Generates seeded chaos scenarios (see src/faultinject/scenario.h for the
// scenario kinds and their invariants) and checks that every invariant holds
// under every generated failure schedule. Each failing seed prints a
// one-line repro command; the first few seeds are re-run serially and their
// digests compared against the pooled run, which checks the determinism
// contract (same seed → byte-identical outcome at any thread count) on
// every invocation.
//
//   fuzz_scenarios [--seeds N] [--seed-start S] [--threads T]
//   fuzz_scenarios [--kind K] --seed X
//
// --seed X runs exactly one seed, verbosely. With --kind K it runs kind K
// with that seed instead of the kind the seed selects (seed % kinds); that
// is the repro mode, and it keeps its meaning when kinds are added. For the
// seed's own kind both forms print the same line.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "faultinject/scenario.h"

namespace {

[[noreturn]] void usage_error(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--seed-start S] [--threads T]\n"
               "       %s [--kind K] --seed X\n",
               argv0, argv0);
  std::exit(2);
}

std::uint64_t parse_u64(const char* argv0, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage_error(argv0);
  return static_cast<std::uint64_t>(v);
}

void print_failure(const sompi::fi::ScenarioOutcome& outcome) {
  std::printf("FAIL seed=%llu kind=%s: %s\n",
              static_cast<unsigned long long>(outcome.seed), outcome.kind.c_str(),
              outcome.detail.c_str());
  std::printf("  repro: fuzz_scenarios --kind %s --seed %llu\n", outcome.kind.c_str(),
              static_cast<unsigned long long>(outcome.seed));
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 200;
  std::uint64_t seed_start = 1;
  unsigned threads = 0;  // 0 = hardware concurrency
  bool single = false;
  std::uint64_t single_seed = 0;
  const char* kind = nullptr;  // --kind: run this kind instead of the seed's

  for (int i = 1; i < argc; ++i) {
    const auto arg_value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seeds") == 0) {
      seeds = parse_u64(argv[0], arg_value());
    } else if (std::strcmp(argv[i], "--seed-start") == 0) {
      seed_start = parse_u64(argv[0], arg_value());
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<unsigned>(parse_u64(argv[0], arg_value()));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      single = true;
      single_seed = parse_u64(argv[0], arg_value());
    } else if (std::strcmp(argv[i], "--kind") == 0) {
      kind = arg_value();
    } else {
      usage_error(argv[0]);
    }
  }

  if (kind != nullptr && !single) usage_error(argv[0]);
  if (single) {
    const std::optional<sompi::fi::ScenarioOutcome> ran =
        kind != nullptr ? sompi::fi::run_scenario(kind, single_seed)
                        : sompi::fi::run_scenario(single_seed);
    if (!ran) {
      std::fprintf(stderr, "unknown fuzz kind '%s'\n", kind);
      usage_error(argv[0]);
    }
    const sompi::fi::ScenarioOutcome& outcome = *ran;
    std::printf("seed=%llu kind=%s digest=%016llx %s\n",
                static_cast<unsigned long long>(outcome.seed), outcome.kind.c_str(),
                static_cast<unsigned long long>(outcome.digest),
                outcome.failed ? "FAIL" : "ok");
    if (outcome.failed) {
      print_failure(outcome);
      return 1;
    }
    return 0;
  }

  if (seeds == 0) usage_error(argv[0]);
  std::printf("fuzz_scenarios: seed range [%llu, %llu) — %llu seeds, threads=%u\n",
              static_cast<unsigned long long>(seed_start),
              static_cast<unsigned long long>(seed_start + seeds),
              static_cast<unsigned long long>(seeds), threads);
  std::fflush(stdout);

  std::vector<sompi::fi::ScenarioOutcome> outcomes(seeds);
  sompi::parallel_for(seeds, threads, [&](std::size_t i) {
    outcomes[i] = sompi::fi::run_scenario(seed_start + i);
  });

  int failures = 0;
  std::map<std::string, std::uint64_t> per_kind;
  for (const auto& outcome : outcomes) {
    ++per_kind[outcome.kind];
    if (outcome.failed) {
      ++failures;
      print_failure(outcome);
    }
  }

  // Determinism self-check: the pooled digests must match a serial re-run.
  const std::uint64_t recheck = std::min<std::uint64_t>(seeds, 8);
  for (std::uint64_t i = 0; i < recheck; ++i) {
    const sompi::fi::ScenarioOutcome serial = sompi::fi::run_scenario(seed_start + i);
    if (serial.digest != outcomes[i].digest) {
      ++failures;
      std::printf("FAIL seed=%llu kind=%s: outcome digest differs between pooled and "
                  "serial runs (%016llx vs %016llx)\n",
                  static_cast<unsigned long long>(serial.seed), serial.kind.c_str(),
                  static_cast<unsigned long long>(outcomes[i].digest),
                  static_cast<unsigned long long>(serial.digest));
      std::printf("  repro: fuzz_scenarios --kind %s --seed %llu\n", serial.kind.c_str(),
                  static_cast<unsigned long long>(serial.seed));
    }
  }

  std::printf("fuzz_scenarios:");
  for (const auto& [kind, count] : per_kind)
    std::printf(" %s=%llu", kind.c_str(), static_cast<unsigned long long>(count));
  std::printf(" failures=%d\n", failures);
  return failures == 0 ? 0 : 1;
}
