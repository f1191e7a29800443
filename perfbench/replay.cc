// Layer replay: times direct calls into each layer's public functions
// over the workload's own programs and facts, in a private Universe and
// Database so the served stack is left untouched. Reports the median
// per-call time of every layer.
#include "perfbench/replay.h"

#include <map>
#include <optional>

#include "src/analysis/admission.h"
#include "src/analysis/locality.h"
#include "src/engine/database.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/view/view.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 400;

class Samples {
 public:
  /// Times `fn` and files the duration under `name`.
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) {
    const int64_t t0 = NowNs();
    auto result = fn();
    last_ = (NowNs() - t0) / 1e3;
    us_[name].push_back(last_);
    return result;
  }
  /// Duration of the latest Time call.
  double last() const { return last_; }
  void Add(const std::string& name, double v) { us_[name].push_back(v); }
  double MedianOf(const std::string& name) const {
    auto it = us_.find(name);
    return it == us_.end() ? 0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> us_;
  double last_ = 0;
};

}  // namespace

Status ReplayLayers(const ReplayInputs& in, double budget_s, Metrics* m) {
  seqdl::Universe u;
  SEQDL_ASSIGN_OR_RETURN(seqdl::Instance edb,
                         seqdl::ParseInstance(u, in.base_facts));
  SEQDL_ASSIGN_OR_RETURN(seqdl::Database db,
                         seqdl::Database::Open(u, std::move(edb)));
  struct Prepared {
    std::optional<seqdl::PreparedProgram> prog;
    std::optional<seqdl::RelId> output;
  };
  std::vector<Prepared> prepared(in.programs.size());
  Samples s;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int round = 0;
       round < kMaxRounds && (round < kMinRounds || NowNs() < deadline);
       ++round) {
    for (size_t i = 0; i < in.programs.size(); ++i) {
      const ProgramSpec& spec = in.programs[i];
      SEQDL_ASSIGN_OR_RETURN(seqdl::Program p, s.Time("parse_program", [&] {
        return seqdl::ParseProgram(u, spec.text);
      }));
      s.Time("admission", [&] { return seqdl::AnalyzeAdmission(u, p); });
      s.Time("locality", [&] { return seqdl::AnalyzeLocality(u, p); });
      SEQDL_ASSIGN_OR_RETURN(seqdl::PreparedProgram prog, s.Time("compile", [&] {
        return db.Compile(std::move(p));
      }));
      if (!prepared[i].prog && !spec.output_rel.empty()) {
        SEQDL_ASSIGN_OR_RETURN(seqdl::RelId out, u.FindRel(spec.output_rel));
        prepared[i].output = out;
      }
      seqdl::Session session = s.Time("pin", [&] { return db.Snapshot(); });
      SEQDL_ASSIGN_OR_RETURN(seqdl::Instance answer, s.Time("run:" + spec.id, [&] {
        return prepared[i].output ? session.RunQuery(prog, *prepared[i].output)
                                  : session.Run(prog);
      }));
      s.Add("run", s.last());
      std::string text = s.Time("render", [&] { return answer.ToString(u); });
      s.Add("render_bytes", static_cast<double>(text.size()));
      if (!prepared[i].prog) prepared[i].prog.emplace(std::move(prog));
    }

    // Write path: parse a batch, append it and refresh every view
    // (delta), retract it and refresh again (DRed), then compact.
    seqdl::ViewManager& views = db.views();
    for (size_t i = 0; i < prepared.size(); ++i) {
      SEQDL_RETURN_IF_ERROR(
          views.Refresh(in.programs[i].id, *prepared[i].prog).status());
    }
    for (bool retract : {false, true}) {
      SEQDL_ASSIGN_OR_RETURN(seqdl::Instance batch, s.Time("parse_facts", [&] {
        return seqdl::ParseInstance(u, in.batch_facts);
      }));
      if (retract) {
        SEQDL_RETURN_IF_ERROR(s.Time("retract", [&] {
                                 return db.Retract(std::move(batch));
                               }).status());
      } else {
        SEQDL_RETURN_IF_ERROR(s.Time("append", [&] {
                                 return db.Append(std::move(batch));
                               }).status());
      }
      for (size_t i = 0; i < prepared.size(); ++i) {
        SEQDL_ASSIGN_OR_RETURN(
            std::shared_ptr<const seqdl::ViewSnapshot> view,
            s.Time("refresh", [&] {
              return views.Refresh(in.programs[i].id, *prepared[i].prog);
            }));
        s.Add("snapshot_bytes", static_cast<double>(view->ApproxBytes()));
      }
    }
    SEQDL_RETURN_IF_ERROR(s.Time("compact", [&] { return db.Compact(); }).status());
    // Compaction drops the lazily built indexes; rebuild them untimed so
    // the next round's runs measure evaluation, not index builds.
    seqdl::Session warm = db.Snapshot();
    for (const Prepared& p : prepared) {
      SEQDL_RETURN_IF_ERROR(warm.Run(*p.prog).status());
    }
  }

  m->Set("syntax.parse_program_us", s.MedianOf("parse_program"), "us");
  m->Set("syntax.parse_facts_us", s.MedianOf("parse_facts"), "us");
  m->Set("analysis.admission_us", s.MedianOf("admission"), "us");
  m->Set("analysis.locality_us", s.MedianOf("locality"), "us");
  m->Set("engine.compile_us", s.MedianOf("compile"), "us");
  m->Set("engine.pin_us", s.MedianOf("pin"), "us");
  m->Set("engine.run_us", s.MedianOf("run"), "us");
  for (const ProgramSpec& spec : in.programs) {
    m->Set("engine.run_us." + spec.id, s.MedianOf("run:" + spec.id), "us");
  }
  m->Set("render.us", s.MedianOf("render"), "us");
  m->Set("render.bytes", s.MedianOf("render_bytes"), "bytes");
  m->Set("view.refresh_us", s.MedianOf("refresh"), "us");
  m->Set("view.snapshot_bytes", s.MedianOf("snapshot_bytes"), "bytes");
  m->Set("database.append_us", s.MedianOf("append"), "us");
  m->Set("database.retract_us", s.MedianOf("retract"), "us");
  m->Set("database.compact_us", s.MedianOf("compact"), "us");
  return Status::OK();
}

}  // namespace perfbench
