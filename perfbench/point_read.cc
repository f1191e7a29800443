// point_read: two closed-loop clients issue parameterised point queries
// Q($t) <- Log(c<k> ++ $t). over an event-log EDB holding one trace per
// case key. Keys follow Zipf(1) over 256 distinct texts, 4x the service's
// 64-entry result cache, so the cache does not hold the working set:
// hits measure the wire and cache path, misses the snapshot pin, a small
// fixpoint, render and LRU eviction. Answers are checked against the
// generator's own traces.
#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "perfbench/single_node.h"

namespace perfbench {
namespace {

constexpr size_t kTraces = 2048;
constexpr size_t kTexts = 256;
constexpr size_t kCacheEntries = 64;
constexpr size_t kClients = 2;
constexpr double kZipfS = 1.0;

std::vector<std::string> RandomTrace(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> len(32, 64), act(0, 7);
  std::vector<std::string> events;
  for (int i = 0, n = len(rng); i < n; ++i) {
    events.push_back("act" + std::to_string(act(rng)));
  }
  return events;
}

class PointRead : public SingleNode {
 public:
  PointRead() : zipf_(kTexts, kZipfS) {}

  Status Setup(const Config& cfg) override {
    seed_ = cfg.seed;
    std::mt19937_64 rng(cfg.seed);
    std::string facts;
    std::vector<std::string> traces;
    for (size_t k = 0; k < kTraces; ++k) {
      std::vector<std::string> events = RandomTrace(rng);
      traces.push_back(PathText(events));
      std::vector<std::string> path = {"c" + std::to_string(k)};
      path.insert(path.end(), events.begin(), events.end());
      facts += FactLine("Log", {PathText(path)}) + "\n";
    }
    base_facts_ = facts;
    for (size_t k = 0; k < 16; ++k) {
      std::vector<std::string> path = {"n" + std::to_string(k)};
      std::vector<std::string> events = RandomTrace(rng);
      path.insert(path.end(), events.begin(), events.end());
      batch_facts_ += FactLine("Log", {PathText(path)}) + "\n";
    }
    // Rank r of the popularity order queries case key perm[r].
    std::vector<size_t> perm(kTraces);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);
    for (size_t r = 0; r < kTexts; ++r) {
      texts_.push_back("Q($t) <- Log(c" + std::to_string(perm[r]) +
                       " ++ $t).\n");
      expected_.push_back(FactLine("Q", {traces[perm[r]]}) + "\n");
    }

    seqdl::ServiceOptions sopts;
    sopts.result_cache_entries = kCacheEntries;
    SEQDL_RETURN_IF_ERROR(Start(facts, {}, std::move(sopts), kClients));

    // Warm-up: compile and serve every text once, then let the LRU reach
    // its steady mix under the timed phase's key distribution.
    OpLog warm;
    ReplyCounters counters;
    seqdl::protocol::RunReply reply;
    for (size_t r = 0; r < kTexts; ++r) {
      CheckedRun(clients_[0], "read", texts_[r], "", expected_[r], &warm,
                 &counters, &reply);
    }
    std::mt19937_64 warm_rng(cfg.seed ^ 0x5eed);
    for (int i = 0; i < 4000; ++i) {
      size_t r = zipf_(warm_rng);
      CheckedRun(clients_[0], "read", texts_[r], "", expected_[r], &warm,
                 &counters, &reply);
    }
    if (warm.Bad() != 0) {
      return Status::Internal("point_read warm-up: " + warm.first_error());
    }
    return Status::OK();
  }

  Status RunPhase(double seconds, OpLog* log,
                  ReplyCounters* counters) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<OpLog> logs(kClients);
    std::vector<ReplyCounters> per(kClients);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(seed_ * 7919 + t + ++phase_);
        seqdl::protocol::RunReply reply;
        while (NowNs() < deadline) {
          size_t r = zipf_(rng);
          CheckedRun(clients_[t], "read", texts_[r], "", expected_[r],
                     &logs[t], &per[t], &reply);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (size_t t = 0; t < kClients; ++t) {
      log->Merge(logs[t]);
      counters->Merge(per[t]);
    }
    return Status::OK();
  }

  ReplayInputs Replay() const override {
    ReplayInputs in;
    for (size_t r = 0; r < 8; ++r) {
      in.programs.push_back({"q" + std::to_string(r), texts_[r], ""});
    }
    in.base_facts = base_facts_;
    in.batch_facts = batch_facts_;
    return in;
  }

  std::vector<std::string> Describe() const override {
    return {"clients=2 closed-loop, read-only",
            "server_workers=2 result_cache_entries=64 cache_bytes=64MiB "
            "maintain_views=on sync=in-memory",
            "edb: 2048 Log traces (8-16 events over 8 activities); 256 "
            "distinct query texts, Zipf s=1"};
  }

 private:
  uint64_t seed_ = 0;
  std::atomic<uint64_t> phase_{0};
  Zipf zipf_;
  std::vector<std::string> texts_;
  std::vector<std::string> expected_;
  std::string base_facts_;
  std::string batch_facts_;
};

}  // namespace

std::unique_ptr<Workload> MakePointRead() {
  return std::make_unique<PointRead>();
}

}  // namespace perfbench
