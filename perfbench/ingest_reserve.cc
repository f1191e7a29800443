// ingest_reserve: one writer and one reader over a durable database
// (--sync=interval, 100 ms; auto-compaction past 8 segments). The writer
// cycles append a batch -> re-serve each maintained program -> retract
// the same batch -> re-serve, so every cycle returns to the start state
// and no cost depends on run length. The maintained programs are reach
// over a chain and process_mining over logs; the reader issues cached
// point queries throughout. Reach is checked against a BFS over each of
// the two alternating states; after the run the database is closed and
// its data directory reopened to check every acknowledged write.
#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "perfbench/single_node.h"
#include "src/workload/baselines.h"

namespace perfbench {
namespace {

constexpr int kChain = 40;
constexpr int kLogs = 160;
constexpr int kReaderKeys = 16;
constexpr int kBatches = 4;
constexpr size_t kAutoCompactSegments = 8;
/// Cycles the writer may add past the deadline to end where it started
/// (the compaction period is a few cycles).
constexpr int kMaxAlignCycles = 64;

using Edge = std::pair<std::string, std::string>;

/// T_rc lines of the nonempty-path closure of `edges`, by BFS.
std::string ReachAnswer(const std::vector<Edge>& edges) {
  std::map<std::string, std::vector<std::string>> adj;
  std::set<std::string> nodes;
  for (const Edge& e : edges) {
    adj[e.first].push_back(e.second);
    nodes.insert(e.first);
    nodes.insert(e.second);
  }
  std::vector<std::string> lines;
  for (const std::string& from : nodes) {
    std::set<std::string> seen;
    std::deque<std::string> queue(adj[from].begin(), adj[from].end());
    seen.insert(queue.begin(), queue.end());
    while (!queue.empty()) {
      std::string n = queue.front();
      queue.pop_front();
      for (const std::string& m : adj[n]) {
        if (seen.insert(m).second) queue.push_back(m);
      }
    }
    for (const std::string& to : seen) {
      lines.push_back(FactLine("T_rc", {PathText({from, to})}));
    }
  }
  return RenderLines(lines);
}

struct Log {
  std::vector<std::string> path;  ///< case key, then events
  bool good = false;
};

Log RandomLog(std::mt19937_64& rng, const std::string& key) {
  std::uniform_int_distribution<int> act(0, 5);
  Log log;
  log.path.push_back(key);
  std::vector<std::string> events;
  for (int j = 0; j < 10; ++j) {
    int a = act(rng);
    events.push_back(a == 4 ? "co" : a == 5 ? "rp" : "act" + std::to_string(a));
  }
  log.path.insert(log.path.end(), events.begin(), events.end());
  log.good = seqdl::EveryCoFollowedByRp(events);
  return log;
}

std::string PmAnswer(const std::vector<Log>& logs) {
  std::vector<std::string> lines;
  for (const Log& l : logs) {
    if (l.good) lines.push_back(FactLine("Good_pm", {PathText(l.path)}));
  }
  return RenderLines(lines);
}

class IngestReserve : public SingleNode {
 public:
  ~IngestReserve() override {
    Stop();
    service_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  Status Setup(const Config& cfg) override {
    seed_ = cfg.seed;
    std::mt19937_64 rng(cfg.seed);
    std::vector<std::string> facts;
    std::vector<Edge> edges;
    for (int i = 0; i + 1 < kChain; ++i) {
      edges.push_back({"n" + std::to_string(i), "n" + std::to_string(i + 1)});
      facts.push_back(FactLine("R_rc", {PathText({edges.back().first,
                                                  edges.back().second})}));
    }
    std::vector<Log> logs;
    for (int i = 0; i < kLogs; ++i) {
      logs.push_back(RandomLog(rng, "c" + std::to_string(i)));
      facts.push_back(FactLine("R_pm", {PathText(logs.back().path)}));
    }
    base_facts_ = RenderLines(facts);
    base_count_ = facts.size();
    reach_text_ = CorpusProgram("reach_ab", "_rc");
    pm_text_ = CorpusProgram("process_mining", "_pm");
    reach_base_ = ReachAnswer(edges);
    pm_base_ = PmAnswer(logs);

    // Each batch grows the chain by two fresh nodes and adds two logs.
    for (int b = 0; b < kBatches; ++b) {
      Batch batch;
      std::string x = "x" + std::to_string(b), y = "y" + std::to_string(b);
      std::vector<Edge> grown = edges;
      grown.push_back({"n" + std::to_string(kChain - 1), x});
      grown.push_back({x, y});
      std::vector<std::string> lines;
      for (size_t e = edges.size(); e < grown.size(); ++e) {
        lines.push_back(FactLine("R_rc", {PathText({grown[e].first,
                                                    grown[e].second})}));
      }
      std::vector<Log> more = logs;
      for (int j = 0; j < 2; ++j) {
        more.push_back(RandomLog(
            rng, "d" + std::to_string(b) + "x" + std::to_string(j)));
        lines.push_back(FactLine("R_pm", {PathText(more.back().path)}));
      }
      batch.facts = RenderLines(lines);
      batch.count = lines.size();
      batch.reach = ReachAnswer(grown);
      batch.pm = PmAnswer(more);
      batches_.push_back(std::move(batch));
    }
    for (int k = 0; k < kReaderKeys; ++k) {
      reader_texts_.push_back("Q($t) <- R_pm(c" + std::to_string(k) +
                              " ++ $t).\n");
      std::vector<std::string> rest(logs[k].path.begin() + 1,
                                    logs[k].path.end());
      reader_expected_.push_back(FactLine("Q", {PathText(rest)}) + "\n");
    }

    dir_ = cfg.workdir + "/ingest-" + std::to_string(cfg.seed) + "-" +
           std::to_string(NowNs());
    open_.data_dir = dir_;
    open_.sync_mode = seqdl::storage::SyncMode::kInterval;
    open_.sync_interval_ms = 100;
    open_.auto_compact_segments = kAutoCompactSegments;
    SEQDL_RETURN_IF_ERROR(Start(base_facts_, open_, {}, 2));

    // Warm-up: every batch once through the full cycle, so the Universe,
    // the program cache and the maintained views reach their steady set.
    OpLog warm;
    ReplyCounters counters;
    for (int b = 0; b < kBatches; ++b) WriterCycle(b, &warm, &counters);
    seqdl::protocol::RunReply reply;
    for (int k = 0; k < kReaderKeys; ++k) {
      CheckedRun(clients_[1], "read", reader_texts_[k], "", reader_expected_[k],
                 &warm, &counters, &reply);
    }
    if (warm.Bad() != 0) {
      return Status::Internal("ingest_reserve warm-up: " + warm.first_error());
    }
    return Status::OK();
  }

  Status RunPhase(double seconds, OpLog* log,
                  ReplyCounters* counters) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    const size_t start_segments = service_->db().NumSegments();
    std::atomic<bool> writer_done{false};
    OpLog reader_log;
    ReplyCounters reader_counters;
    std::thread reader([&] {
      std::mt19937_64 rng(seed_ * 31 + ++phase_);
      std::uniform_int_distribution<int> key(0, kReaderKeys - 1);
      seqdl::protocol::RunReply reply;
      while (!writer_done.load()) {
        int k = key(rng);
        CheckedRun(clients_[1], "read", reader_texts_[k], "",
                   reader_expected_[k], &reader_log, &reader_counters, &reply);
      }
    });
    int extra = 0;
    for (;;) {
      WriterCycle(next_batch_++ % kBatches, log, counters);
      if (NowNs() < deadline) continue;
      if (service_->db().NumSegments() == start_segments) break;
      if (++extra >= kMaxAlignCycles) break;
    }
    writer_done.store(true);
    reader.join();
    log->Merge(reader_log);
    counters->Merge(reader_counters);
    return Status::OK();
  }

  Status Finish(OpLog* log) override {
    // Close the database, reopen its data directory in a fresh Universe,
    // and check that it recovers the last acknowledged epoch and exactly
    // the start state every cycle returns to.
    Stop();
    service_->db().Close();
    service_.reset();
    seqdl::Universe u;
    const int64_t t0 = NowNs();
    Result<seqdl::Database> db = seqdl::Database::Open(u, open_);
    if (!db.ok()) {
      log->RecordError("recover", db.status(), t0, NowNs());
      return Status::OK();
    }
    std::string got = db->edb().ToString(u);
    if (db->epoch() != last_epoch_ || got != base_facts_) {
      log->NoteError("recover: epoch " + std::to_string(db->epoch()) +
                     " (acknowledged " + std::to_string(last_epoch_) + "), " +
                     std::to_string(db->NumFacts()) + " facts (want " +
                     std::to_string(base_count_) + ")");
      log->Record("recover", Outcome::kWrong, t0, NowNs());
    } else {
      log->Record("recover", Outcome::kOk, t0, NowNs());
    }
    return Status::OK();
  }

  ReplayInputs Replay() const override {
    ReplayInputs in;
    in.programs = {{"reach", reach_text_, "T_rc"},
                   {"process_mining", pm_text_, "Good_pm"}};
    in.base_facts = base_facts_;
    in.batch_facts = batches_[0].facts;
    return in;
  }

  std::vector<std::string> Describe() const override {
    return {"clients=2 closed-loop (1 writer cycling append/re-serve/"
            "retract/re-serve, 1 reader of cached point queries)",
            "server_workers=2 result_cache_entries=4096 maintain_views=on "
            "refresh_on_append=on durable sync=interval(100ms) "
            "auto_compact_segments=8",
            "edb: reach chain of 40 nodes, 160 logs of 10 events; 4 batches "
            "of 2 edges + 2 logs; 16 reader keys"};
  }

 private:
  struct Batch {
    std::string facts;
    uint64_t count = 0;
    std::string reach;
    std::string pm;
  };

  void WriterCycle(int b, OpLog* log, ReplyCounters* counters) {
    seqdl::Client& c = clients_[0];
    seqdl::protocol::RunReply reply;
    const Batch& batch = batches_[b];
    CheckedWrite(c, false, batch.facts, batch.count, log, counters,
                 &last_epoch_);
    CheckedRun(c, "reserve", reach_text_, "T_rc", batch.reach, log, counters,
               &reply);
    CheckedRun(c, "reserve", pm_text_, "Good_pm", batch.pm, log, counters,
               &reply);
    CheckedWrite(c, true, batch.facts, batch.count, log, counters,
                 &last_epoch_);
    CheckedRun(c, "reserve", reach_text_, "T_rc", reach_base_, log, counters,
               &reply);
    CheckedRun(c, "reserve", pm_text_, "Good_pm", pm_base_, log, counters,
               &reply);
  }

  uint64_t seed_ = 0;
  std::atomic<uint64_t> phase_{0};
  int next_batch_ = 0;
  uint64_t last_epoch_ = 0;
  std::string dir_;
  seqdl::Database::OpenOptions open_;
  size_t base_count_ = 0;
  std::string base_facts_;
  std::string reach_text_, pm_text_;
  std::string reach_base_, pm_base_;
  std::vector<Batch> batches_;
  std::vector<std::string> reader_texts_, reader_expected_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestReserve() {
  return std::make_unique<IngestReserve>();
}

}  // namespace perfbench
