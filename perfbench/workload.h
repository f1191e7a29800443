// The benchmark's workload interface and the client-call helpers every
// workload shares. A workload owns its whole stack (Database ->
// DatabaseService -> Server, or shard servers behind a Coordinator), its
// seeded inputs, and the independent reference answers its client loops
// check every reply against.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/server/client.h"
#include "src/server/protocol.h"

namespace perfbench {

/// Worker threads of every server a workload starts.
constexpr size_t kServerWorkers = 2;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (durable data directories).
  std::string workdir;
};

/// A program the workload serves, as the layer replay re-runs it.
struct ProgramSpec {
  std::string id;
  std::string text;
  std::string output_rel;  ///< "" = every derived relation
};

/// What the layer replay needs to re-drive each layer directly: the
/// workload's programs, its base facts, and one write batch.
struct ReplayInputs {
  std::vector<ProgramSpec> programs;
  std::string base_facts;
  std::string batch_facts;
};

/// Counters read from replies during a timed phase (per client thread,
/// merged afterwards).
struct ReplyCounters {
  uint64_t evaluated_runs = 0;  ///< run replies not answered from a cache
  uint64_t rule_firings = 0;
  uint64_t index_probes = 0;
  uint64_t prefix_probes = 0;
  uint64_t full_scans = 0;
  uint64_t derived_facts = 0;
  uint64_t runs = 0;
  uint64_t cached_runs = 0;     ///< result_cached replies
  uint64_t run_segments = 0;    ///< summed segment depth at read
  uint64_t writes = 0;
  uint64_t compactions = 0;     ///< writes after which the stack shrank
  uint64_t wal_bytes = 0;       ///< WAL growth over the phase
  uint64_t user_bytes = 0;      ///< fact text bytes written
  uint64_t last_wal = 0;
  uint64_t last_segments = 0;
  void Merge(const ReplyCounters& o);
};

/// Server-side counters sampled before and after a phase.
struct ServerCounters {
  seqdl::protocol::StatsReply stats;
  seqdl::protocol::DbInfo info;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from cfg.seed, opens the stack, starts the
  /// servers and warms every cache the timed phase relies on.
  virtual Status Setup(const Config& cfg) = 0;

  /// Runs the closed-loop clients for at least `seconds`. Workloads with
  /// a write cycle stop at a cycle boundary whose fingerprint matches the
  /// one at the start (compaction is periodic, so this measures whole
  /// periods).
  virtual Status RunPhase(double seconds, OpLog* log,
                          ReplyCounters* counters) = 0;

  virtual Result<Fingerprint> State() = 0;
  virtual Result<ServerCounters> Counters() = 0;

  /// Post-run checks that need the stack torn down (durability).
  virtual Status Finish(OpLog* log) {
    (void)log;
    return Status::OK();
  }

  virtual ReplayInputs Replay() const = 0;
  /// Workload-specific report lines (per-program or per-op-type figures).
  virtual void Report(Metrics* m) const { (void)m; }
  /// True when the front server is a cluster coordinator.
  virtual bool clustered() const { return false; }
  /// Load and configuration facts recorded with each result.
  virtual std::vector<std::string> Describe() const = 0;
};

/// The named workload, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// --- Client-call helpers ----------------------------------------------------

/// Runs `program` and checks the rendered reply against `expected`;
/// records the op under `type`. Returns `out`, holding the reply, when the
/// answer was correct, and null otherwise.
const seqdl::protocol::RunReply* CheckedRun(
    seqdl::Client& client, const std::string& type, const std::string& program,
    const std::string& output_rel, const std::string& expected, OpLog* log,
    ReplyCounters* counters, seqdl::protocol::RunReply* out);

/// Appends (or, with `retract`, retracts) `facts`, expecting exactly
/// `expected_count` facts to change.
bool CheckedWrite(seqdl::Client& client, bool retract, const std::string& facts,
                  uint64_t expected_count, OpLog* log,
                  ReplyCounters* counters, uint64_t* epoch = nullptr);

/// The PaperCorpus program `id` with `suffix` appended to every relation
/// name ("" when the corpus has no such program).
std::string CorpusProgram(const std::string& id, const std::string& suffix);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
