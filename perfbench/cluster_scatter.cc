// cluster_scatter: one closed-loop client talks to a Coordinator served
// on loopback, in front of two in-process shard servers. Each cycle runs
// a keyed transparent join and a residual reach twice (the second pair
// is answered from the coordinator's vector-of-epochs result cache),
// then one routed append, the pair again (cache invalidated), and the
// matching retract. Every answer must be byte-identical to a single-node
// DatabaseService over the same EDB, computed once per state at set-up.
#include <memory>

#include "perfbench/workload.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/frontend.h"
#include "src/engine/database.h"
#include "src/engine/instance.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/term/universe.h"
#include "src/view/view.h"

namespace perfbench {
namespace {

constexpr size_t kShards = 2;
constexpr int kKeys = 64;
constexpr int kValues = 2;
constexpr int kChain = 24;
constexpr int kBatches = 4;
/// Shards compact past two segments, so each append+retract pair folds
/// back to one segment and every cycle ends in the state it started in.
constexpr size_t kShardAutoCompact = 2;

constexpr char kJoin[] = "J($x, $y, $z) <- E($x, $y), F($x, $z).\n";
constexpr char kReach[] =
    "P($x, $y) <- G($x, $y).\n"
    "P($x, $z) <- P($x, $y), G($y, $z).\n";

struct ShardNode {
  // Declaration order is teardown order, reversed.
  std::unique_ptr<seqdl::Universe> u;
  std::unique_ptr<seqdl::DatabaseService> service;
  std::unique_ptr<seqdl::ServiceRequestHandler> handler;
  std::unique_ptr<TracingHandler> traced;
  std::unique_ptr<seqdl::Server> server;
};

class ClusterScatter : public Workload {
 public:
  Status Setup(const Config& cfg) override {
    std::mt19937_64 rng(cfg.seed);
    std::uniform_int_distribution<int> val(0, 999);
    for (int k = 0; k < kKeys; ++k) {
      for (int v = 0; v < kValues; ++v) {
        base_ += FactLine("E", {"k" + std::to_string(k),
                                "v" + std::to_string(val(rng))}) + "\n";
        base_ += FactLine("F", {"k" + std::to_string(k),
                                "w" + std::to_string(val(rng))}) + "\n";
      }
    }
    for (int i = 0; i + 1 < kChain; ++i) {
      base_ += FactLine("G", {"g" + std::to_string(i),
                              "g" + std::to_string(i + 1)}) + "\n";
    }
    for (int b = 0; b < kBatches; ++b) {
      std::string key = "kx" + std::to_string(b);
      Batch batch;
      batch.facts = FactLine("E", {key, "v" + std::to_string(val(rng))}) +
                    "\n" + FactLine("F", {key, "w" + std::to_string(val(rng))}) +
                    "\n" +
                    FactLine("G", {"g" + std::to_string(kChain - 1),
                                   "gx" + std::to_string(b)}) + "\n";
      batch.count = 3;
      batches_.push_back(std::move(batch));
    }
    SEQDL_RETURN_IF_ERROR(ComputeReference());

    // Shards start empty; the EDB is routed through the coordinator.
    std::vector<seqdl::ShardAddress> addrs;
    for (size_t i = 0; i < kShards; ++i) {
      auto shard = std::make_unique<ShardNode>();
      shard->u = std::make_unique<seqdl::Universe>();
      seqdl::Database::OpenOptions open;
      open.auto_compact_segments = kShardAutoCompact;
      SEQDL_ASSIGN_OR_RETURN(
          seqdl::Database db,
          seqdl::Database::Open(*shard->u, seqdl::Instance(), open));
      shard->service =
          std::make_unique<seqdl::DatabaseService>(*shard->u, std::move(db));
      shard->handler =
          std::make_unique<seqdl::ServiceRequestHandler>(*shard->service);
      shard->traced = std::make_unique<TracingHandler>(*shard->handler, "shard");
      seqdl::ServerOptions sopts;
      sopts.threads = kServerWorkers;
      SEQDL_ASSIGN_OR_RETURN(shard->server,
                             seqdl::Server::Start(*shard->traced, sopts));
      addrs.push_back({"127.0.0.1", shard->server->port()});
      shards_.push_back(std::move(shard));
    }
    front_ = std::make_unique<Front>();
    front_->u = std::make_unique<seqdl::Universe>();
    front_->coord =
        std::make_unique<seqdl::Coordinator>(*front_->u, std::move(addrs));
    front_->handler = std::make_unique<seqdl::CoordinatorHandler>(
        *front_->coord, /*forward_shutdown=*/false);
    front_->traced = std::make_unique<TracingHandler>(*front_->handler, "server");
    seqdl::ServerOptions sopts;
    sopts.threads = kServerWorkers;
    SEQDL_ASSIGN_OR_RETURN(front_->server,
                           seqdl::Server::Start(*front_->traced, sopts));
    SEQDL_ASSIGN_OR_RETURN(
        seqdl::Client c,
        seqdl::Client::Connect("127.0.0.1", front_->server->port()));
    client_ = std::make_unique<seqdl::Client>(std::move(c));
    SEQDL_ASSIGN_OR_RETURN(seqdl::protocol::AppendReply seeded,
                           client_->Append(base_));
    (void)seeded;

    // Warm-up: every batch once through the full cycle.
    OpLog warm;
    ReplyCounters counters;
    for (int b = 0; b < kBatches; ++b) Cycle(b, &warm, &counters);
    if (warm.Bad() != 0) {
      return Status::Internal("cluster_scatter warm-up: " + warm.first_error());
    }
    return Status::OK();
  }

  Status RunPhase(double seconds, OpLog* log,
                  ReplyCounters* counters) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) Cycle(next_batch_++ % kBatches, log, counters);
    return Status::OK();
  }

  Result<Fingerprint> State() override {
    perfbench::Fingerprint f;
    for (const auto& s : shards_) {
      const seqdl::Database& db = s->service->db();
      f.facts += db.NumFacts();
      f.segments += db.NumSegments();
      f.paths += s->u->num_paths();
      f.programs += s->service->NumCachedPrograms();
      f.views += db.views().NumViews();
    }
    f.paths += front_->u->num_paths();
    return f;
  }

  Result<ServerCounters> Counters() override {
    ServerCounters c;
    SEQDL_ASSIGN_OR_RETURN(c.stats, client_->Stats());
    SEQDL_ASSIGN_OR_RETURN(c.info, client_->Epoch());
    return c;
  }

  ReplayInputs Replay() const override {
    ReplayInputs in;
    in.programs = {{"join", kJoin, "J"}, {"reach", kReach, "P"}};
    in.base_facts = base_;
    in.batch_facts = batches_[0].facts;
    return in;
  }

  bool clustered() const override { return true; }

  std::vector<std::string> Describe() const override {
    return {"clients=1 closed-loop to a coordinator (2 workers) over 2 "
            "loopback shard servers (2 workers each)",
            "coordinator result_cache_entries=64; shards result_cache_entries="
            "4096 auto_compact_segments=2 sync=in-memory",
            "edb: E/F 64 keys x 2 values, G chain of 24; cycle = join, reach, "
            "join, reach, append, join, reach, retract"};
  }

 private:
  struct Batch {
    std::string facts;
    uint64_t count = 0;
  };

  /// Single-node reference answers: state 0 is the base EDB, state b+1
  /// the base plus batch b.
  Status ComputeReference() {
    seqdl::Universe u;
    SEQDL_ASSIGN_OR_RETURN(seqdl::Instance edb, seqdl::ParseInstance(u, base_));
    SEQDL_ASSIGN_OR_RETURN(seqdl::Database db,
                           seqdl::Database::Open(u, std::move(edb)));
    seqdl::DatabaseService service(u, std::move(db));
    auto answer = [&](const char* program, const char* rel)
        -> Result<std::string> {
      seqdl::protocol::RunRequest req;
      req.program = program;
      req.output_rel = rel;
      SEQDL_ASSIGN_OR_RETURN(seqdl::protocol::RunReply r, service.Run(req));
      return r.rendered;
    };
    auto record = [&]() -> Status {
      SEQDL_ASSIGN_OR_RETURN(std::string j, answer(kJoin, "J"));
      SEQDL_ASSIGN_OR_RETURN(std::string p, answer(kReach, "P"));
      join_.push_back(std::move(j));
      reach_.push_back(std::move(p));
      return Status::OK();
    };
    SEQDL_RETURN_IF_ERROR(record());
    for (const Batch& b : batches_) {
      SEQDL_ASSIGN_OR_RETURN(seqdl::protocol::AppendReply a,
                             service.Append({b.facts, ""}));
      (void)a;
      SEQDL_RETURN_IF_ERROR(record());
      SEQDL_ASSIGN_OR_RETURN(seqdl::protocol::RetractReply r,
                             service.Retract({b.facts, ""}));
      (void)r;
    }
    return Status::OK();
  }

  void Cycle(int b, OpLog* log, ReplyCounters* counters) {
    seqdl::Client& c = *client_;
    seqdl::protocol::RunReply reply;
    for (int rep = 0; rep < 2; ++rep) {
      CheckedRun(c, "read", kJoin, "J", join_[0], log, counters, &reply);
      CheckedRun(c, "read", kReach, "P", reach_[0], log, counters, &reply);
    }
    const Batch& batch = batches_[b];
    CheckedWrite(c, false, batch.facts, batch.count, log, counters);
    CheckedRun(c, "read", kJoin, "J", join_[b + 1], log, counters, &reply);
    CheckedRun(c, "read", kReach, "P", reach_[b + 1], log, counters, &reply);
    CheckedWrite(c, true, batch.facts, batch.count, log, counters);
  }

  struct Front {
    std::unique_ptr<seqdl::Universe> u;
    std::unique_ptr<seqdl::Coordinator> coord;
    std::unique_ptr<seqdl::CoordinatorHandler> handler;
    std::unique_ptr<TracingHandler> traced;
    std::unique_ptr<seqdl::Server> server;
  };

  std::string base_;
  std::vector<Batch> batches_;
  std::vector<std::string> join_, reach_;
  int next_batch_ = 0;
  // Teardown runs client, coordinator front end, then the shards.
  std::vector<std::unique_ptr<ShardNode>> shards_;
  std::unique_ptr<Front> front_;
  std::unique_ptr<seqdl::Client> client_;
};

}  // namespace

std::unique_ptr<Workload> MakeClusterScatter() {
  return std::make_unique<ClusterScatter>();
}

}  // namespace perfbench
