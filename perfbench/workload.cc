#include "perfbench/workload.h"

#include "src/queries/queries.h"

namespace perfbench {

namespace protocol = seqdl::protocol;

void ReplyCounters::Merge(const ReplyCounters& o) {
  evaluated_runs += o.evaluated_runs;
  rule_firings += o.rule_firings;
  index_probes += o.index_probes;
  prefix_probes += o.prefix_probes;
  full_scans += o.full_scans;
  derived_facts += o.derived_facts;
  runs += o.runs;
  cached_runs += o.cached_runs;
  run_segments += o.run_segments;
  writes += o.writes;
  compactions += o.compactions;
  wal_bytes += o.wal_bytes;
  user_bytes += o.user_bytes;
}

namespace {

std::string Excerpt(const std::string& s) {
  return s.size() <= 120 ? s : s.substr(0, 120) + "...";
}

}  // namespace

const protocol::RunReply* CheckedRun(seqdl::Client& client,
                                     const std::string& type,
                                     const std::string& program,
                                     const std::string& output_rel,
                                     const std::string& expected, OpLog* log,
                                     ReplyCounters* counters,
                                     protocol::RunReply* out) {
  ClientTimer timer([&] { return RunPayload(program, output_rel); });
  Result<protocol::RunReply> r = client.Run(program, output_rel);
  timer.Done();
  if (!r.ok()) {
    log->RecordError(type, r.status(), timer.start_ns, timer.end_ns);
    return nullptr;
  }
  if (r->rendered != expected) {
    log->NoteError(type + ": wrong answer to " + Excerpt(program) +
                   " got [" + Excerpt(r->rendered) + "] want [" +
                   Excerpt(expected) + "]");
    log->Record(type, Outcome::kWrong, timer.start_ns, timer.end_ns);
    return nullptr;
  }
  log->Record(type, Outcome::kOk, timer.start_ns, timer.end_ns);
  ++counters->runs;
  counters->run_segments += r->segments;
  if (r->result_cached) {
    ++counters->cached_runs;
  } else {
    ++counters->evaluated_runs;
    counters->rule_firings += r->stats.rule_firings;
    counters->index_probes += r->stats.index_probes;
    counters->prefix_probes += r->stats.prefix_probes;
    counters->full_scans += r->stats.full_scans;
    counters->derived_facts += r->stats.derived_facts;
  }
  *out = std::move(*r);
  return out;
}

bool CheckedWrite(seqdl::Client& client, bool retract, const std::string& facts,
                  uint64_t expected_count, OpLog* log,
                  ReplyCounters* counters, uint64_t* epoch) {
  ClientTimer timer([&] {
    return retract ? protocol::EncodeRetractRequest({facts, ""}).substr(4)
                   : protocol::EncodeAppendRequest({facts, ""}).substr(4);
  });
  uint64_t changed = 0;
  protocol::DbInfo db;
  Status st;
  if (retract) {
    Result<protocol::RetractReply> r = client.Retract(facts);
    if (r.ok()) {
      changed = r->retracted;
      db = r->db;
    } else {
      st = r.status();
    }
  } else {
    Result<protocol::AppendReply> r = client.Append(facts);
    if (r.ok()) {
      changed = r->appended;
      db = r->db;
    } else {
      st = r.status();
    }
  }
  timer.Done();
  if (!st.ok()) {
    log->RecordError("write", st, timer.start_ns, timer.end_ns);
    return false;
  }
  if (changed != expected_count) {
    log->NoteError(std::string(retract ? "retract" : "append") + " changed " +
                   std::to_string(changed) + " facts, expected " +
                   std::to_string(expected_count));
    log->Record("write", Outcome::kWrong, timer.start_ns, timer.end_ns);
    return false;
  }
  log->Record("write", Outcome::kOk, timer.start_ns, timer.end_ns);
  ++counters->writes;
  counters->user_bytes += facts.size();
  if (db.segments < counters->last_segments) ++counters->compactions;
  counters->wal_bytes += db.wal_bytes >= counters->last_wal
                             ? db.wal_bytes - counters->last_wal
                             : db.wal_bytes;
  counters->last_segments = db.segments;
  counters->last_wal = db.wal_bytes;
  if (epoch != nullptr) *epoch = db.epoch;
  return true;
}

std::string CorpusProgram(const std::string& id, const std::string& suffix) {
  for (const seqdl::PaperQuery& q : seqdl::PaperCorpus()) {
    if (q.id == id) return Relabel(q.program_text, suffix);
  }
  return "";
}

}  // namespace perfbench
