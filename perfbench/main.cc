// seqdl end-to-end benchmark program.
//
//   seqdl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up is
// repeated several times (median reported), then one closed-loop timed
// phase of S seconds runs against the last stack. --trace 1 runs the same
// workload for S/2 seconds untraced and S/2 seconds traced (their
// throughput ratio is the tracing overhead), derives the per-layer
// metrics from the spans and the counters the program exports, and
// replays each layer directly. Both modes check every answer, fingerprint
// the workload state at the start and end of each timed phase, and print
// report lines followed by one JSON object as the last line of stdout.
// The exit code is 0 only when every check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <thread>
#include <unordered_map>

#include "perfbench/bench.h"
#include "perfbench/replay.h"
#include "perfbench/workload.h"

namespace perfbench {

std::unique_ptr<Workload> MakePointRead();
std::unique_ptr<Workload> MakeCorpusEval();
std::unique_ptr<Workload> MakeIngestReserve();
std::unique_ptr<Workload> MakeClusterScatter();

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "point_read") return MakePointRead();
  if (name == "corpus_eval") return MakeCorpusEval();
  if (name == "ingest_reserve") return MakeIngestReserve();
  if (name == "cluster_scatter") return MakeClusterScatter();
  return nullptr;
}

namespace {

/// Set-up runs this many times (a fixed count, so the allocation history
/// behind peak_rss_mb does not depend on speed); setup_s is the median.
constexpr int kSetupRuns = 7;
constexpr double kReplaySeconds = 1.0;
/// A timed phase whose second half completes fewer than this share of
/// the first half's operations is drifting, not steady.
constexpr double kMinHalfRatio = 0.5;

const std::vector<std::string> kEndToEnd = {
    "setup_s", "ops_per_s", "read_p50_us", "read_p99_us", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "server.handle_us", "server.wire_us", "protocol.reply_bytes",
    "service.cache_hit_ratio", "service.evictions_per_op",
    "service.programs_cached", "syntax.parse_program_us",
    "syntax.parse_facts_us", "analysis.admission_us", "analysis.locality_us",
    "engine.compile_us", "engine.pin_us", "engine.run_us",
    "engine.rule_firings", "engine.index_probes", "engine.prefix_probes",
    "engine.full_scans", "engine.derived_facts", "engine.firing_yield",
    "term.paths", "term.paths_per_op", "render.us", "render.bytes",
    "view.refresh_us", "view.delta_refreshes", "view.dred_refreshes",
    "view.strata_recomputed", "view.cold_runs", "view.snapshot_bytes",
    "database.append_us", "database.retract_us", "database.compact_us",
    "database.compactions_per_kwrite", "database.segments",
    "storage.wal_bytes_per_user_byte", "storage.disk_bytes_per_user_byte",
    "storage.checkpoints", "trace.client_self_us", "trace.server_self_us",
    "trace.span_coverage", "trace.overhead"};

struct Phase {
  OpLog log;
  ReplyCounters counters;
  ServerCounters before, after;
  Fingerprint start, end;
  double seconds = 0;
  double ops_per_s = 0;
  /// VmHWM read as soon as the clients stop, before the benchmark's own
  /// percentile and report bookkeeping allocates.
  double peak_rss_mb = 0;
};

/// Runs one timed phase between two fingerprints and counter samples.
Status RunTimed(Workload& w, double seconds, Phase* p) {
  SEQDL_ASSIGN_OR_RETURN(p->start, w.State());
  SEQDL_ASSIGN_OR_RETURN(p->before, w.Counters());
  p->counters.last_wal = p->before.info.wal_bytes;
  p->counters.last_segments = p->before.info.segments;
  const int64_t t0 = NowNs();
  OpLog::StartPhase(t0);
  SEQDL_RETURN_IF_ERROR(w.RunPhase(seconds, &p->log, &p->counters));
  p->seconds = (NowNs() - t0) / 1e9;
  p->peak_rss_mb = PeakRssMb();
  p->ops_per_s = p->log.Attempted() / p->seconds;
  SEQDL_ASSIGN_OR_RETURN(p->end, w.State());
  SEQDL_ASSIGN_OR_RETURN(p->after, w.Counters());
  return Status::OK();
}

/// Steady-state guard: equal fingerprints and no throughput drift between
/// the halves of the phase. Prints what it checked; false on failure.
bool SteadyGuard(const char* label, const Phase& p) {
  const std::vector<uint32_t>& ticks = p.log.ticks();
  size_t first = 0, last = ticks.size();
  while (first < last && ticks[first] == 0) ++first;
  while (last > first && ticks[last - 1] == 0) --last;
  const size_t mid = first + (last - first) / 2;
  double early = 0, late = 0;
  for (size_t i = first; i < last; ++i) (i < mid ? early : late) += ticks[i];
  const double half_s = (mid - first) * OpLog::kTickNs / 1e9;
  const double r1 = half_s > 0 ? early / half_s : 0;
  const double r2 = half_s > 0 ? late / ((last - mid) * OpLog::kTickNs / 1e9)
                               : 0;
  bool same = p.start == p.end;
  bool flat = r1 > 0 && r2 >= kMinHalfRatio * r1;
  std::printf("steady %s start: %s\n", label, p.start.ToString().c_str());
  std::printf("steady %s end:   %s (%s)\n", label, p.end.ToString().c_str(),
              same ? "equal" : "CHANGED");
  std::printf("steady %s ops_per_s first_half=%.1f second_half=%.1f (%s)\n",
              label, r1, r2, flat ? "flat" : "DRIFT");
  return same && flat;
}

/// Latency percentiles of the given op types, with sample counts.
void Latency(Metrics* m, const Phase& p, const std::string& name,
             const std::vector<std::string>& types) {
  LatencySamples lat;
  for (const std::string& t : types) {
    auto it = p.log.ops().find(t);
    if (it != p.log.ops().end()) lat.Merge(it->second.latency);
  }
  if (lat.count() == 0) return;
  m->Set(name + "_p50_us", lat.Percentile(0.5), "us");
  m->Set(name + "_p99_us", lat.Percentile(0.99), "us");
  m->Set(name + "_samples", lat.count(), "count");
  m->Set(name + "_beyond_p99", lat.count() / 100, "count");
}

/// The phase's complete windows: each window's operation count and its
/// latencies of the given op types.
struct Window {
  uint64_t ops = 0;
  LatencySamples latency;
};
std::vector<Window> Windows(const Phase& p,
                            const std::vector<std::string>& types) {
  const size_t n = static_cast<size_t>(p.seconds * 1e9 / OpLog::kWindowNs);
  std::vector<Window> out(n);
  for (const auto& [type, s] : p.log.ops()) {
    const bool wanted =
        std::find(types.begin(), types.end(), type) != types.end();
    for (size_t i = 0; i < n && i < s.windows.size(); ++i) {
      out[i].ops += s.windows[i].count();
      if (wanted) out[i].latency.Merge(s.windows[i]);
    }
  }
  return out;
}

/// Throughput and read latency as medians over the phase's windows, so a
/// few seconds of host stalls move them less than a whole-phase figure;
/// falls back to the whole phase when it is shorter than one window.
void WindowedEndToEnd(Metrics* m, const Phase& p) {
  std::vector<Window> windows = Windows(p, {"read"});
  if (windows.empty()) {
    m->Set("ops_per_s", p.ops_per_s, "1/s");
    Latency(m, p, "read", {"read"});
    return;
  }
  std::vector<double> ops, p50, p99;
  for (const Window& w : windows) {
    ops.push_back(w.ops / (OpLog::kWindowNs / 1e9));
    p50.push_back(w.latency.Percentile(0.5));
    p99.push_back(w.latency.Percentile(0.99));
  }
  m->Set("ops_per_s", Median(ops), "1/s");
  m->Set("read_p50_us", Median(p50), "us");
  m->Set("read_p99_us", Median(p99), "us");
  m->Set("windows", windows.size(), "count");
  m->Set("phase_ops_per_s", p.ops_per_s, "1/s");
  Latency(m, p, "phase_read", {"read"});
}

void Accounting(const Phase& p) {
  for (const auto& [type, s] : p.log.ops()) {
    std::printf(
        "ops %-10s attempted=%llu succeeded=%llu failed=%llu refused=%llu "
        "wrong=%llu\n",
        type.c_str(), (unsigned long long)s.attempted,
        (unsigned long long)s.succeeded, (unsigned long long)s.failed,
        (unsigned long long)s.refused, (unsigned long long)s.wrong);
  }
  if (!p.log.first_error().empty()) {
    std::printf("first error: %s\n", p.log.first_error().c_str());
  }
}

struct SpanSummary {
  double handle_us = 0, wire_us = 0, reply_bytes = 0, coverage = 0;
  double client_self = 0, server_self = 0, shard_self = 0;
  double shard_max = 0, shard_mean = 0, merge = 0, gather = 0;
};

double UnionUs(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0, cur_s = 0, cur_e = INT64_MIN;
  for (const auto& [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e != INT64_MIN) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e != INT64_MIN) total += cur_e - cur_s;
  return total / 1e3;
}

/// Links server spans to the client span of the same request (same
/// payload hash, enclosing interval) and shard spans to the enclosing
/// server span, assigns ids, and summarizes self times.
SpanSummary LinkSpans(std::vector<Span>& spans) {
  SpanSummary out;
  // Client spans by payload key, in start order.
  std::unordered_map<uint64_t, std::vector<size_t>> clients;
  std::vector<size_t> servers, shards;
  double client_total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    s.id = i + 1;
    const std::string name = s.name;
    if (name == "client") {
      s.request = s.id;
      clients[s.key].push_back(i);
      client_total += s.us();
    } else if (name == "server") {
      servers.push_back(i);
    } else if (name == "shard") {
      shards.push_back(i);
    }
  }
  auto by_start = [&](size_t a, size_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  };
  std::sort(servers.begin(), servers.end(), by_start);
  size_t client_count = 0;
  for (auto& [key, list] : clients) {
    std::sort(list.begin(), list.end(), by_start);
    client_count += list.size();
  }
  std::unordered_map<size_t, std::vector<size_t>> children;
  for (size_t sh : shards) {
    auto it = std::upper_bound(servers.begin(), servers.end(), sh,
                               [&](size_t x, size_t y) {
                                 return spans[x].start_ns < spans[y].start_ns;
                               });
    if (it == servers.begin()) continue;
    size_t sv = *std::prev(it);
    if (spans[sv].end_ns < spans[sh].end_ns) continue;
    spans[sh].parent = spans[sv].id;
    children[sv].push_back(sh);
  }
  double matched_server = 0, matched_client = 0, handle = 0, bytes = 0;
  double server_self = 0, shard_time = 0;
  size_t matched = 0, with_shards = 0, shard_n = 0;
  for (size_t sv : servers) {
    Span& s = spans[sv];
    // The enclosing client span is the latest same-key span that started
    // before this one; with a few concurrent clients it is among the last
    // few candidates.
    size_t best = SIZE_MAX;
    auto list = clients.find(s.key);
    if (list != clients.end()) {
      auto it = std::upper_bound(
          list->second.begin(), list->second.end(), s.start_ns,
          [&](int64_t t, size_t c) { return t < spans[c].start_ns; });
      for (int k = 0; k < 8 && it != list->second.begin(); ++k) {
        const size_t c = *--it;
        if (s.end_ns <= spans[c].end_ns) {
          best = c;
          break;
        }
      }
    }
    handle += s.us();
    bytes += s.bytes;
    std::vector<std::pair<int64_t, int64_t>> iv;
    double max_child = 0, child_bytes = 0;
    for (size_t ch : children[sv]) {
      iv.push_back({spans[ch].start_ns, spans[ch].end_ns});
      max_child = std::max(max_child, spans[ch].us());
      child_bytes += spans[ch].bytes;
      shard_time += spans[ch].us();
      ++shard_n;
    }
    server_self += s.us() - UnionUs(iv);
    if (!iv.empty()) {
      ++with_shards;
      out.shard_max += max_child;
      out.merge += s.us() - max_child;
      out.gather += child_bytes;
    }
    if (best == SIZE_MAX) continue;
    s.parent = spans[best].id;
    s.request = spans[best].id;
    for (size_t ch : children[sv]) spans[ch].request = s.request;
    ++matched;
    matched_server += s.us();
    matched_client += spans[best].us();
  }
  if (!servers.empty()) {
    out.handle_us = handle / servers.size();
    out.reply_bytes = bytes / servers.size();
    out.server_self = server_self / servers.size();
    out.shard_self = shard_time / servers.size();
  }
  if (matched > 0) out.wire_us = (matched_client - matched_server) / matched;
  if (client_count > 0) {
    out.client_self = (client_total - matched_server) / client_count;
  }
  if (client_total > 0) out.coverage = matched_server / client_total;
  if (with_shards > 0) {
    out.shard_max /= with_shards;
    out.merge /= with_shards;
    out.gather /= with_shards;
  }
  if (shard_n > 0) out.shard_mean = shard_time / shard_n;
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"bytes\": " << s.bytes << "}\n";
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer metrics from the traced phase's replies and counters.
void LayerCounters(Metrics* m, const Workload& w, const Phase& p,
                   const std::string& base_facts) {
  const ReplyCounters& c = p.counters;
  const auto& s0 = p.before.stats;
  const auto& s1 = p.after.stats;
  const double ops = p.log.Attempted();
  const double writes = c.writes;
  const uint64_t hits = s1.cache_hits - s0.cache_hits;
  const uint64_t misses = s1.cache_misses - s0.cache_misses;
  m->Set("service.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  m->Set("service.evictions_per_op",
         Ratio(s1.cache_evictions - s0.cache_evictions, ops), "count/op");
  m->Set("service.programs_cached", p.end.programs, "count");
  m->Set("engine.rule_firings", Ratio(c.rule_firings, c.evaluated_runs),
         "count/run");
  m->Set("engine.index_probes", Ratio(c.index_probes, c.evaluated_runs),
         "count/run");
  m->Set("engine.prefix_probes", Ratio(c.prefix_probes, c.evaluated_runs),
         "count/run");
  m->Set("engine.full_scans", Ratio(c.full_scans, c.evaluated_runs),
         "count/run");
  m->Set("engine.derived_facts", Ratio(c.derived_facts, c.evaluated_runs),
         "count/run");
  m->Set("engine.firing_yield", Ratio(c.derived_facts, c.rule_firings),
         "ratio");
  m->Set("term.paths", p.start.paths, "count");
  m->Set("term.paths_per_op",
         Ratio(static_cast<double>(p.end.paths) - p.start.paths, ops),
         "count/op");
  m->Set("view.delta_refreshes",
         Ratio(s1.view_delta_refreshes - s0.view_delta_refreshes, writes),
         "count/write");
  m->Set("view.dred_refreshes",
         Ratio(s1.view_dred_refreshes - s0.view_dred_refreshes, writes),
         "count/write");
  m->Set("view.strata_recomputed",
         Ratio(s1.view_strata_recomputed - s0.view_strata_recomputed, writes),
         "count/write");
  m->Set("view.cold_runs", Ratio(s1.view_cold_runs - s0.view_cold_runs, ops),
         "count/op");
  m->Set("database.compactions_per_kwrite",
         Ratio(1000.0 * c.compactions, writes), "count/kwrite");
  m->Set("database.segments", Ratio(c.run_segments, c.runs), "count");
  m->Set("storage.wal_bytes_per_user_byte", Ratio(c.wal_bytes, c.user_bytes),
         "bytes/byte");
  m->Set("storage.disk_bytes_per_user_byte",
         Ratio(p.after.info.on_disk_bytes, base_facts.size()), "bytes/byte");
  m->Set("storage.checkpoints",
         p.after.info.manifest_generation - p.before.info.manifest_generation,
         "count");
  if (w.clustered()) {
    m->Set("cluster.cache_hit_ratio", Ratio(c.cached_runs, c.runs), "ratio");
  }
}

void SpanMetrics(Metrics* m, const Workload& w, const SpanSummary& s) {
  m->Set("server.handle_us", s.handle_us, "us");
  m->Set("server.wire_us", s.wire_us, "us");
  m->Set("protocol.reply_bytes", s.reply_bytes, "bytes");
  m->Set("trace.client_self_us", s.client_self, "us");
  m->Set("trace.server_self_us", s.server_self, "us");
  m->Set("trace.span_coverage", s.coverage, "ratio");
  if (w.clustered()) {
    m->Set("trace.shard_self_us", s.shard_self, "us");
    m->Set("cluster.shard_handle_max_us", s.shard_max, "us");
    m->Set("cluster.shard_handle_mean_us", s.shard_mean, "us");
    m->Set("cluster.merge_us", s.merge, "us");
    m->Set("cluster.gather_bytes", s.gather, "bytes");
  }
}

std::string Slurp(const char* path) {
  std::ifstream in(path);
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  return s;
}

void PrintMachine() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string load = Slurp("/proc/loadavg");
  if (!load.empty() && load.back() == '\n') load.pop_back();
  std::printf("machine nproc=%u cpu=\"%s\" loadavg=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), cpu.c_str(), load.c_str(),
              PERFBENCH_BUILD_TYPE);
}

int Usage() {
  std::fprintf(stderr,
               "usage: seqdl_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n");
  return 2;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "seqdl_perfbench: %s\n", what.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Config cfg;
  cfg.workdir = ".bench_build/perfbench/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--workdir") {
      cfg.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds <= 0 || !MakeWorkload(cfg.workload)) {
    return Usage();
  }
  std::filesystem::create_directories(cfg.workdir);
  PrintMachine();
  std::printf("config workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), (unsigned long long)cfg.seed, cfg.seconds,
              cfg.trace ? 1 : 0);

  // Set-up: data generation, open/seed, server start, warm-up.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < (cfg.trace ? 1 : kSetupRuns); ++i) {
    w.reset();
    std::unique_ptr<Workload> fresh = MakeWorkload(cfg.workload);
    const int64_t t0 = NowNs();
    Status st = fresh->Setup(cfg);
    if (!st.ok()) return Fail("set-up failed: " + st.ToString());
    setup_s.push_back((NowNs() - t0) / 1e9);
    w = std::move(fresh);
  }
  for (const std::string& line : w->Describe()) {
    std::printf("config %s\n", line.c_str());
  }
  // peak_rss_mb is the high-water mark of the timed phase: hand the
  // memory freed by the repeated set-ups back to the OS, then reset
  // VmHWM to the live footprint.
  const double setup_rss_mb = PeakRssMb();
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";

  Metrics m;
  bool steady = true;
  OpLog all;
  if (!cfg.trace) {
    Phase p;
    Status st = RunTimed(*w, cfg.seconds, &p);
    if (!st.ok()) return Fail("timed phase failed: " + st.ToString());
    m.Set("peak_rss_mb", p.peak_rss_mb, "MB");
    m.Set("setup_peak_rss_mb", setup_rss_mb, "MB");
    steady = SteadyGuard("timed", p);
    Accounting(p);
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("setup_runs", setup_s.size(), "count");
    WindowedEndToEnd(&m, p);
    Latency(&m, p, "write", {"write"});
    Latency(&m, p, "reserve", {"reserve"});
    m.Set("error_rate", Ratio(p.log.Bad(), p.log.Attempted()), "ratio");
    w->Report(&m);
    all.Merge(p.log);
  } else {
    Phase plain, traced;
    Status st = RunTimed(*w, cfg.seconds / 2, &plain);
    if (!st.ok()) return Fail("untraced phase failed: " + st.ToString());
    Tracer::Get().Enable(true);
    st = RunTimed(*w, cfg.seconds / 2, &traced);
    Tracer::Get().Enable(false);
    if (!st.ok()) return Fail("traced phase failed: " + st.ToString());
    std::vector<Span> spans = Tracer::Get().Take();
    steady = SteadyGuard("untraced", plain);
    steady = SteadyGuard("traced", traced) && steady;
    Accounting(traced);
    ReplayInputs replay = w->Replay();
    LayerCounters(&m, *w, traced, replay.base_facts);
    SpanMetrics(&m, *w, LinkSpans(spans));
    m.Set("trace.overhead", 1.0 - Ratio(traced.ops_per_s, plain.ops_per_s),
          "ratio");
    m.Set("trace.untraced_ops_per_s", plain.ops_per_s, "1/s");
    m.Set("trace.traced_ops_per_s", traced.ops_per_s, "1/s");
    st = ReplayLayers(replay, kReplaySeconds, &m);
    if (!st.ok()) return Fail("layer replay failed: " + st.ToString());
    // One file per workload, overwritten by the next traced run.
    WriteSpans(cfg.workdir + "/spans-" + cfg.workload + ".jsonl", spans);
    m.Set("trace.spans", spans.size(), "count");
    m.Set("trace.dropped_spans", Tracer::Get().dropped(), "count");
    all.Merge(plain.log);
    all.Merge(traced.log);
  }

  Status st = w->Finish(&all);
  if (!st.ok()) return Fail("post-run check failed: " + st.ToString());
  w.reset();

  m.PrintReport("metric");
  const bool correct = all.Bad() == 0 && steady;
  if (!all.first_error().empty()) {
    std::printf("first error: %s\n", all.first_error().c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", (unsigned long long)all.Attempted(),
      (unsigned long long)all.Bad(),
      m.Json(cfg.trace ? kPerLayer : kEndToEnd).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
