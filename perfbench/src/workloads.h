// The benchmark's workloads. Each builds its inputs from the seed, measures
// for the requested seconds, checks its outputs, and fills a Report.
#pragma once

#include "harness.h"

namespace perfbench {

/// Algorithm 1 (AdaptiveEngine::run) over the paper's evaluation apps at loose
/// and tight deadlines, trace-replayed on a 14-day synthetic market.
Report run_campaign(const Options& options);

/// Closed-loop plan serving over the wire into a 4-shard tier, Zipf-skewed
/// keys with a small share of never-seen ones.
Report run_serve_mix(const Options& options);

/// Feed ticks for a rotating hot subset of groups, one epoch at a time; after
/// each epoch every tenant re-plans over the wire.
Report run_epoch_churn(const Options& options);

}  // namespace perfbench
