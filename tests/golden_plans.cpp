// Golden-file regression harness for the optimizer (ISSUE 3 satellite).
//
// Four canned spot-price markets — fully determined by hard-coded seeds —
// are solved with a fixed optimizer configuration, and the resulting plan
// fingerprints are diffed against committed golden files. Any drift in trace
// generation, the cost model, or the optimizer search shows up as a failing
// tier-1 test with a precise diff, instead of silently shifting costs.
//
//   golden_plans --golden-dir DIR [--update-golden]
//
// Each golden file records the market digest separately from the plan
// fingerprint, so a failure says *which* layer drifted: a changed market
// digest means trace generation moved (the optimizer never saw the old
// inputs); a changed fingerprint under an identical market indicts the
// optimizer/cost-model stack itself.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/catalog.h"
#include "common/rng.h"
#include "core/ondemand.h"
#include "core/optimizer.h"
#include "platform/platform.h"
#include "profile/estimator.h"
#include "profile/paper_profiles.h"
#include "service/request.h"
#include "trace/market.h"

namespace {

using namespace sompi;

struct GoldenCase {
  const char* name;       // golden file stem
  const char* app;        // paper profile name
  double deadline_factor; // × the on-demand baseline time
  double days;            // market history length
  std::uint64_t seed;     // trace-generation (and profile) seed
  bool paper_profile;     // paper volatility zoo vs seeded random profile
  bool multilevel;        // enumerate checkpoint-level policies (DESIGN.md §11)
};

// Four regimes: a calm paper market with a loose deadline (replication is
// cheap), a random market under a moderate deadline, a random market under a
// deadline tight enough to force the worst-case guard to matter, and the
// moderate market re-solved with the multi-level checkpoint policies
// enumerated — pinning which level policy the optimizer picks per group.
constexpr GoldenCase kCases[] = {
    {"paper_calm_bt", "BT", 2.0, 2.0, 11, true, false},
    {"random_mid_sp", "SP", 1.5, 1.5, 1729, false, false},
    {"random_tight_ft", "FT", 1.15, 3.0, 42, false, false},
    {"multilevel_mid_sp", "SP", 1.5, 1.5, 1729, false, true},
};

/// FNV-1a over every price bit-pattern of every group trace, in catalog
/// group order — a stable digest of exactly what the optimizer saw.
std::uint64_t market_digest(const Catalog& catalog, const Market& market) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const CircleGroupSpec& spec : catalog.all_groups()) {
    const SpotTrace& trace = market.trace(spec);
    mix(static_cast<std::uint64_t>(trace.steps()));
    for (const double p : trace.prices()) {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(p));
      std::memcpy(&bits, &p, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

/// Small but non-trivial search: two groups over four candidates keeps a
/// full tier-1 sweep under a second while still exercising subset
/// enumeration, φ-tying, and the deadline guard.
OptimizerConfig golden_config() {
  OptimizerConfig config;
  config.max_candidates = 4;
  config.max_groups = 2;
  config.setup.log_levels = 3;
  config.setup.failure.samples = 800;
  config.ratio_bins = 64;
  return config;
}

std::string render_case_with(const GoldenCase& c, const ExecTimeEstimator& estimator) {
  const Catalog catalog = paper_catalog();
  Rng rng(c.seed);
  const MarketProfile profile =
      c.paper_profile ? paper_market_profile(catalog) : random_market_profile(catalog, rng);
  const Market market = generate_market(catalog, profile, c.days, 0.25, c.seed);

  const AppProfile app = paper_profile(c.app);
  const double deadline_h =
      OnDemandSelector(&catalog, &estimator).baseline(app).t_h * c.deadline_factor;

  OptimizerConfig config = golden_config();
  if (c.multilevel)
    config.ckpt_policies = {CkptPolicy::single_s3(), CkptPolicy::cache_s3(),
                            CkptPolicy::cache_xor_s3()};
  const SompiOptimizer optimizer(&catalog, &estimator, config);
  const Plan plan = optimizer.optimize(app, market, deadline_h);

  std::ostringstream os;
  os << "case=" << c.name << "\n";
  os << "market=" << std::hex << market_digest(catalog, market) << std::dec << "\n";
  os << "fingerprint=" << plan_fingerprint(plan) << "\n";
  return os.str();
}

std::string render_case(const GoldenCase& c) {
  return render_case_with(c, ExecTimeEstimator());
}

std::string golden_path(const std::string& dir, const GoldenCase& c) {
  return dir + "/" + c.name + ".golden";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  out = os.str();
  return true;
}

/// Reports the first differing line — enough to tell a market drift from an
/// optimizer drift at a glance.
void print_diff(const std::string& name, const std::string& want, const std::string& got) {
  std::istringstream ws(want), gs(got);
  std::string wline, gline;
  for (int line = 1;; ++line) {
    const bool w_ok = static_cast<bool>(std::getline(ws, wline));
    const bool g_ok = static_cast<bool>(std::getline(gs, gline));
    if (!w_ok && !g_ok) break;
    if (!w_ok) wline = "<end of file>";
    if (!g_ok) gline = "<end of file>";
    if (wline != gline) {
      std::printf("  %s line %d differs:\n    golden: %s\n    actual: %s\n", name.c_str(),
                  line, wline.c_str(), gline.c_str());
      return;
    }
    if (!w_ok || !g_ok) break;
  }
}

/// Flat-anchor invariant (DESIGN.md §12): re-solving every golden case with
/// the flat-platform estimator must reproduce the catalog-only render byte
/// for byte. Returns failures.
int verify_flat_anchor(const GoldenCase& c, const std::string& want) {
  const Catalog catalog = paper_catalog();
  const platform::Platform flat = platform::Platform::flat(catalog);
  const std::string got = render_case_with(c, ExecTimeEstimator(&flat));
  if (got != want) {
    std::printf("FAIL %s: flat-platform re-solve drifted\n", c.name);
    print_diff(c.name, want, got);
    return 1;
  }
  std::printf("ok %s (flat platform)\n", c.name);
  return 0;
}

[[noreturn]] void usage_error(const char* argv0) {
  std::fprintf(stderr, "usage: %s --golden-dir DIR [--update-golden]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  bool update = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--golden-dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--update-golden") == 0) {
      update = true;
    } else {
      usage_error(argv[0]);
    }
  }
  if (dir.empty()) usage_error(argv[0]);

  int failures = 0;
  for (const GoldenCase& c : kCases) {
    const std::string actual = render_case(c);
    const std::string path = golden_path(dir, c);
    if (update) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "golden_plans: cannot write %s\n", path.c_str());
        return 2;
      }
      out << actual;
      std::printf("updated %s\n", path.c_str());
      continue;
    }
    std::string want;
    if (!read_file(path, want)) {
      std::printf("FAIL %s: golden file missing (%s)\n", c.name, path.c_str());
      std::printf("  regenerate: golden_plans --golden-dir %s --update-golden\n", dir.c_str());
      ++failures;
      continue;
    }
    if (want != actual) {
      std::printf("FAIL %s: plan drifted from golden file\n", c.name);
      print_diff(c.name, want, actual);
      std::printf("  accept the new plan: golden_plans --golden-dir %s --update-golden\n",
                  dir.c_str());
      ++failures;
      continue;
    }
    std::printf("ok %s\n", c.name);
    failures += verify_flat_anchor(c, actual);
  }
  if (failures > 0) {
    std::printf("golden_plans: %d of %zu cases drifted\n", failures, std::size(kCases));
    return 1;
  }
  return 0;
}
