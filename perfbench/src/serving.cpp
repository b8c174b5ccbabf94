#include "serving.h"

#include <cstdio>
#include <string>
#include <thread>

namespace perfbench {

using namespace sompi;

ServingStack::ServingStack(double market_days, const OptimizerConfig& opt)
    : world(std::make_unique<World>(market_days)) {
  tier = std::make_unique<ShardedPlanService>(&world->catalog, &world->estimator,
                                              world->market, tier_config(opt));
  net::ServerConfig server_config;
  server_config.workers = 4;
  server = std::make_unique<net::PlanServerLoop>(tier.get(), server_config);
  client = std::make_unique<net::PlanClient>(server.get(), net::ClientMode::kRouted);
}

void WireDriver::submit(const PlanRequest& request, std::uint64_t tag, Clock::time_point start) {
  const std::uint64_t id = client_->submit(request);
  pending_[id] = Pending{tag, start};
}

void WireDriver::submit_batch(const std::vector<PlanRequest>& requests, std::uint64_t first_tag,
                              Clock::time_point start) {
  const std::vector<std::uint64_t> ids = client_->submit_batch(requests);
  for (std::size_t i = 0; i < ids.size(); ++i) pending_[ids[i]] = Pending{first_tag + i, start};
}

std::vector<Completion> WireDriver::poll() {
  std::vector<net::ClientCompletion> done = client_->harvest();
  std::vector<Completion> out;
  if (done.empty()) {
    std::this_thread::yield();
    return out;
  }
  const auto now = Clock::now();
  out.reserve(done.size());
  for (net::ClientCompletion& c : done) {
    const auto it = pending_.find(c.request_id);
    if (it == pending_.end()) continue;  // not ours (cannot happen: one WireDriver per client)
    Completion r;
    r.tag = it->second.tag;
    r.done = now;
    r.latency_s = seconds_between(it->second.start, now);
    r.wire = std::move(c);
    pending_.erase(it);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Completion> WireDriver::finish() {
  std::vector<Completion> out;
  while (!pending_.empty()) {
    std::vector<Completion> got = poll();
    for (Completion& c : got) out.push_back(std::move(c));
  }
  return out;
}

CounterSnapshot snapshot_counters(ServingStack& stack) {
  CounterSnapshot s;
  s.wire = stack.client->server_stats();
  s.tier = stack.tier->stats();
  s.client_codec = stack.client->codec_stats();
  for (std::size_t i = 0; i < stack.tier->shard_count(); ++i) {
    const CostTableStore::Stats t = stack.tier->shard(i).table_store_stats();
    s.tables.hits += t.hits;
    s.tables.misses += t.misses;
    s.tables.invalidated += t.invalidated;
    s.tables.entries += t.entries;
    s.tables.bytes += t.bytes;
  }
  return s;
}

namespace {

std::string ratio_line(const std::string& name, std::uint64_t part, std::uint64_t base,
                       const std::string& base_name) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %llu / %llu %s = %.4f", name.c_str(),
                static_cast<unsigned long long>(part), static_cast<unsigned long long>(base),
                base_name.c_str(),
                base ? static_cast<double>(part) / static_cast<double>(base) : 0.0);
  return buf;
}

}  // namespace

void report_counters(Report& report, const CounterSnapshot& a, const CounterSnapshot& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) { return y - x; };
  const std::uint64_t requests = d(a.wire.requests, b.wire.requests);
  const std::uint64_t hits = d(a.wire.hits, b.wire.hits);
  const std::uint64_t solves = d(a.wire.solves, b.wire.solves);
  const std::uint64_t joins = d(a.wire.dedup_joins, b.wire.dedup_joins);
  const std::uint64_t sheds = d(a.wire.sheds, b.wire.sheds);
  const std::uint64_t forwarded = d(a.wire.forwarded, b.wire.forwarded);
  const std::uint64_t duplicates = d(a.wire.duplicate_solves, b.wire.duplicate_solves);
  const std::uint64_t rejected = d(a.wire.frames_rejected, b.wire.frames_rejected) +
                                 d(a.client_codec.rejects(), b.client_codec.rejects());
  const std::uint64_t wire_errors = d(a.wire.wire_errors, b.wire.wire_errors);
  const std::uint64_t table_hits = d(a.tables.hits, b.tables.hits);
  const std::uint64_t table_lookups = d(a.tables.lookups(), b.tables.lookups());

  report.info(ratio_line("counters: hits", hits, requests, "tier requests"));
  report.info(ratio_line("counters: solves", solves, requests, "tier requests"));
  report.info(ratio_line("counters: replans", d(a.wire.replan_count, b.wire.replan_count),
                         solves, "solves"));
  report.info(ratio_line("counters: joins", joins, requests, "tier requests"));
  report.info(ratio_line("counters: sheds", sheds, requests, "tier requests"));
  report.info(ratio_line("counters: wire sheds", d(a.wire.wire_sheds, b.wire.wire_sheds),
                         d(a.wire.frames_received, b.wire.frames_received), "frames"));
  report.info(ratio_line("counters: forwarded", forwarded, d(a.wire.sprayed, b.wire.sprayed),
                         "landed requests"));
  report.info(ratio_line("counters: table-store hits", table_hits, table_lookups, "lookups"));
  const std::uint64_t pruned = d(a.tier.total.tuples_pruned, b.tier.total.tuples_pruned);
  report.info(ratio_line(
      "counters: tuples pruned", pruned,
      pruned + d(a.tier.total.evaluations_performed, b.tier.total.evaluations_performed),
      "pruned + evaluated tuples"));
  report.info(ratio_line("counters: warm seeds", d(a.tier.total.warm_seeds, b.tier.total.warm_seeds),
                         d(a.tier.total.replan_count, b.tier.total.replan_count), "replans"));
  report.info("counters: duplicate solves " + std::to_string(duplicates) + ", frames rejected " +
              std::to_string(rejected) + ", wire errors " + std::to_string(wire_errors) +
              ", table store " + std::to_string(b.tables.entries) + " entries / " +
              std::to_string(b.tables.bytes) + " bytes");

  report.check(hits + solves + joins + sheds == requests,
               "hits + solves + joins + sheds == requests (" + std::to_string(requests) + ")");
  report.check(forwarded == 0, "routed client: forwarded == 0");
  report.check(duplicates == 0, "no duplicate solves per (key, epoch)");
  report.check(rejected == 0 && wire_errors == 0, "no codec rejects or wire errors");
}

}  // namespace perfbench
