/// \file campaign.hpp
/// campaign:: — distributed, fault-tolerant, resumable scenario campaigns
/// over incr::ScenarioRunner (ROADMAP item 3).
///
/// A campaign is a spec (spec.hpp) expanded into a deterministic scenario
/// list. Execution is sharded: every completed scenario lands in
/// `<out>/shards/<fingerprint>.json`, written to a temp file and
/// atomically renamed — the shard directory IS the work queue. A killed
/// campaign re-run rescans the directory and skips everything already
/// done; a crashed worker's in-flight scenario is simply re-dispatched.
/// Failed scenarios (invalid rewires, off-die moves, ...) write error
/// shards: they are completed work, reported as failures, never retried.
///
/// run_campaign() executes the pending set either in-process (workers=0:
/// one ScenarioRunner batch — the serial reference) or by spawning
/// `hssta_cli campaign-worker` subprocesses that speak a serve-style
/// newline-JSON protocol over stdio:
///
///   worker ► {"ok":true,"ready":true,"campaign":..,
///             "base_fingerprint":..,"scenarios":N}
///   coord  ► {"verb":"scenario","index":i,"fingerprint":".."}
///   worker ► {"ok":true,"index":i,"fingerprint":"..",
///             "failed":false,"seconds":s}
///   coord  ► {"verb":"shutdown"}          (or just closes stdin)
///
/// The ready handshake pins both sides to the same expansion: a worker
/// whose base fingerprint or scenario count disagrees (stale spec, other
/// binary) is rejected before any work is dispatched.
///
/// merge_campaign() folds the shards into one campaign report, keyed by
/// the expansion order — byte-identical no matter how many workers ran,
/// in what order shards landed, or how often the campaign was resumed,
/// and byte-identical to the workers=0 serial run (asserted by the
/// SubprocessTest suite for chain and star bases, and by CI's
/// campaign-smoke job). Run-varying data (seconds, engine counters)
/// deliberately stays out of the merged report.

#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "hssta/campaign/spec.hpp"
#include "hssta/flow/config.hpp"

namespace hssta::campaign {

struct CampaignOptions {
  /// Campaign output directory (shards live in `<out_dir>/shards/`,
  /// the merged report at `<out_dir>/campaign.json`). Created on demand.
  std::string out_dir;
  /// Worker process count; 0 runs every pending scenario in-process as
  /// one ScenarioRunner batch (the serial reference path).
  size_t workers = 4;
  /// Stop after this many scenario executions this run (0 = no limit).
  /// The deterministic kill switch: a limited run completes normally with
  /// `remaining > 0`, so resume tests don't need timing-dependent kills.
  size_t limit = 0;
  /// Worker executable (the hssta_cli binary). Empty = locate
  /// automatically next to the running executable.
  std::string worker_cmd;
  /// Extra argv appended to every worker invocation (e.g. "--config F").
  std::vector<std::string> worker_args;
  /// Analysis configuration. Workers force threads=1 (parallelism is the
  /// worker fan-out); the in-process path honors config.threads.
  flow::Config config;
};

/// One run's outcome. `skipped` counts scenarios whose valid shard
/// predated this run — the resume contract's observable: a resumed
/// campaign reports skipped == the work the killed run completed.
struct RunStats {
  size_t total = 0;         ///< scenarios in the expansion
  size_t executed = 0;      ///< run to completion this invocation
  size_t skipped = 0;       ///< valid shard already present at start
  size_t failed = 0;        ///< of executed: scenarios that errored
  size_t remaining = 0;     ///< still shard-less when the run returned
  size_t redispatched = 0;  ///< re-queued after a worker died mid-scenario
};

/// One completed scenario as persisted in its shard file.
struct ShardData {
  size_t index = 0;
  std::string label;
  uint64_t fingerprint = 0;
  uint64_t base_fingerprint = 0;
  std::string changes;  ///< describe_changes() provenance
  std::string error;    ///< non-empty = the scenario failed
  /// Delay stats (valid when ok()); named exactly like delay_json.
  double mean = 0.0, sigma = 0.0, q90 = 0.0, q99 = 0.0, q9987 = 0.0;
  double seconds = 0.0;  ///< informational; excluded from merged reports

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Execute the campaign's pending scenarios. Throws on a broken spec, an
/// un-spawnable worker, a handshake mismatch, or when every worker died
/// with work outstanding; individual scenario failures are recorded in
/// their shards, not thrown.
RunStats run_campaign(const std::string& spec_path,
                      const CampaignOptions& opts);

struct StatusReport {
  std::string name;
  std::string base_fingerprint;
  size_t total = 0;
  size_t done = 0;    ///< valid shards present
  size_t failed = 0;  ///< of done: error shards
};

/// Scan the shard directory against the expansion (no scenarios run).
[[nodiscard]] StatusReport campaign_status(const std::string& spec_path,
                                           const CampaignOptions& opts);

/// Merge every shard into the campaign report, write it atomically to
/// `<out_dir>/campaign.json` and return the JSON text. Throws when any
/// scenario is still missing its shard (merge is for complete campaigns;
/// use campaign_status to see how far along a partial one is).
std::string merge_campaign(const std::string& spec_path,
                           const CampaignOptions& opts);

/// The worker side of the wire protocol, stream-based so tests can drive
/// it in-process. Builds the base, answers the ready handshake, executes
/// scenario requests (writing shards exactly like the in-process path),
/// and returns 0 on shutdown/EOF. opts.config.threads is forced to 1.
int worker_loop(const std::string& spec_path, const CampaignOptions& opts,
                std::istream& in, std::ostream& out);

/// Locate the hssta_cli binary for worker spawning: next to the running
/// executable, then one directory up (bench binaries live in a
/// subdirectory of the build root), then bare "hssta_cli" from PATH.
[[nodiscard]] std::string default_worker_cmd();

/// Shard file path for a scenario fingerprint.
[[nodiscard]] std::string shard_path(const std::string& out_dir,
                                     uint64_t fingerprint);

/// Parse one shard file; nullopt when missing, unparseable, or not a
/// shard for (`fingerprint`, `base_fingerprint`) — all three mean "this
/// scenario has not run yet" to the resume scan.
[[nodiscard]] std::optional<ShardData> read_shard(const std::string& path,
                                                  uint64_t fingerprint,
                                                  uint64_t base_fingerprint);

}  // namespace hssta::campaign
