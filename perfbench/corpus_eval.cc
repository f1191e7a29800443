// corpus_eval: one closed-loop client cycles the paper's own programs
// (PaperCorpus) over seeded inputs, each program under its own relation
// names, with the service's result cache off (result_cache_entries = 0,
// the analytical configuration): every request pays a full fixpoint and
// a render. Answers are checked against the direct C++ baselines of
// src/workload/baselines, and each paper pair P / T(P) must agree on its
// output relation.
#include <algorithm>
#include <set>

#include "perfbench/single_node.h"
#include "src/workload/baselines.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

struct Case {
  std::string id;
  std::string text;
  std::string output_rel;
  std::string expected;
  /// Index of an earlier case whose output must match this one once the
  /// output relation names are aligned (the paper's P / T(P) pairs).
  int pair = -1;
};

std::string Str(std::mt19937_64& rng, size_t len, int letters) {
  std::uniform_int_distribution<int> letter(0, letters - 1);
  std::string s;
  for (size_t i = 0; i < len; ++i) s += static_cast<char>('a' + letter(rng));
  return s;
}

std::string CharPath(const std::string& s) {
  std::vector<std::string> atoms;
  for (char c : s) atoms.push_back(std::string(1, c));
  return PathText(atoms);
}

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

class CorpusEval : public SingleNode {
 public:
  Status Setup(const Config& cfg) override {
    std::mt19937_64 rng(cfg.seed);
    std::vector<std::string> facts;
    auto unary = [&](const std::string& rel, const std::string& s) {
      facts.push_back(FactLine(rel, {CharPath(s)}));
    };

    {  // Example 2.1: NFA acceptance. Every (state, letter) has exactly
       // two successors, one of them the next state round a cycle, so every
       // state is reachable and the run's cost does not swing with the seed.
      seqdl::Nfa nfa;
      nfa.num_states = 4;
      nfa.alphabet = 2;
      nfa.initial = {true, false, false, false};
      nfa.accepting = {false, rng() % 2 == 0, rng() % 2 == 0, true};
      nfa.delta.assign(4, std::vector<std::vector<uint32_t>>(2));
      for (uint32_t q = 0; q < 4; ++q) {
        for (auto& succ : nfa.delta[q]) {
          const uint32_t next = (q + 1) % 4;
          succ = {next, static_cast<uint32_t>((next + 1 + rng() % 3) % 4)};
        }
      }
      for (size_t q = 0; q < nfa.num_states; ++q) {
        std::string qs = "q" + std::to_string(q);
        if (nfa.initial[q]) facts.push_back(FactLine("N_nfa", {qs}));
        if (nfa.accepting[q]) facts.push_back(FactLine("F_nfa", {qs}));
        for (size_t l = 0; l < nfa.alphabet; ++l) {
          for (uint32_t q2 : nfa.delta[q][l]) {
            facts.push_back(FactLine(
                "D_nfa", {qs, seqdl::LetterName(l), "q" + std::to_string(q2)}));
          }
        }
      }
      std::vector<std::string> out;
      for (int i = 0; i < 6; ++i) {
        std::string s = Str(rng, 3 + i % 6, 2);
        unary("R_nfa", s);
        std::vector<uint32_t> word;
        for (char c : s) word.push_back(static_cast<uint32_t>(c - 'a'));
        if (nfa.Accepts(word)) out.push_back(FactLine("A_nfa", {CharPath(s)}));
      }
      Add("ex21_nfa", "_nfa", "A_nfa", out);
    }
    {  // Section 5.1.1: reachability, answered with the whole closure.
       // A seeded Hamiltonian cycle plus one chord out of every node keeps
       // the graph strongly connected with out-degree 2, so the closure
       // always has nodes^2 pairs and about the same number of derivations.
      seqdl::Graph g;
      g.nodes = 10;
      std::vector<uint32_t> order(g.nodes);
      for (uint32_t n = 0; n < g.nodes; ++n) order[n] = n;
      std::shuffle(order.begin(), order.end(), rng);
      for (uint32_t n = 0; n < g.nodes; ++n) {
        g.edges.emplace_back(order[n], order[(n + 1) % g.nodes]);
      }
      for (uint32_t n = 0; n < g.nodes; ++n) {
        g.edges.emplace_back(n, (n + 1 + rng() % (g.nodes - 1)) % g.nodes);
      }
      auto name = [](uint32_t n) {
        return n == 0 ? std::string("a")
                      : n == 1 ? std::string("b") : "n" + std::to_string(n);
      };
      for (const auto& [from, to] : g.edges) {
        facts.push_back(FactLine("R_reach", {PathText({name(from), name(to)})}));
      }
      std::vector<std::string> out;
      for (uint32_t x = 0; x < g.nodes; ++x) {
        for (uint32_t y = 0; y < g.nodes; ++y) {
          if (seqdl::Reachable(g, x, y)) {
            out.push_back(FactLine("T_reach", {PathText({name(x), name(y)})}));
          }
        }
      }
      if (seqdl::Reachable(g, 0, 1)) out.push_back(FactLine("S_reach", {}));
      Add("reach_ab", "_reach", "", out);
    }
    {  // Introduction: process mining over event logs.
      std::uniform_int_distribution<int> act(0, 5);
      std::vector<std::string> out;
      for (int i = 0; i < 24; ++i) {
        std::vector<std::string> events;
        for (int j = 0; j < 10; ++j) {
          int a = act(rng);
          events.push_back(a == 4 ? "co" : a == 5 ? "rp" : "act" + std::to_string(a));
        }
        facts.push_back(FactLine("R_pm", {PathText(events)}));
        if (seqdl::EveryCoFollowedByRp(events)) {
          out.push_back(FactLine("Good_pm", {PathText(events)}));
        }
      }
      Add("process_mining", "_pm", "Good_pm", out);
    }
    {  // Example 4.3: reversal, with and without arity.
      std::vector<std::string> out, out_noarity;
      for (int i = 0; i < 16; ++i) {
        std::string s = Str(rng, 2 + i % 6, 3);
        unary("R_rev", s);
        unary("R_revn", s);
        out.push_back(FactLine("S_rev", {CharPath(seqdl::ReverseString(s))}));
        out_noarity.push_back(
            FactLine("S_revn", {CharPath(seqdl::ReverseString(s))}));
      }
      Add("ex43_reverse", "_rev", "S_rev", out);
      Add("ex43_reverse_noarity", "_revn", "S_revn", out_noarity,
          static_cast<int>(cases_.size()) - 1);
    }
    {  // Examples 3.1 / 4.4: only a's, via an equation and without one.
      std::vector<std::string> out, out_noeq;
      for (int i = 0; i < 360; ++i) {
        size_t len = 1 + i % 8;
        std::string s = i % 2 == 0 ? std::string(len, 'a') : Str(rng, len, 2);
        unary("R_oae", s);
        unary("R_oan", s);
        if (seqdl::OnlyAs(s)) {
          out.push_back(FactLine("S_oae", {CharPath(s)}));
          out_noeq.push_back(FactLine("S_oan", {CharPath(s)}));
        }
      }
      Add("ex31_only_as_e", "_oae", "S_oae", out);
      Add("ex44_only_as_noeq", "_oan", "S_oan", out_noeq,
          static_cast<int>(cases_.size()) - 1);
    }
    {  // Example 4.6: marked pairs a1..an bn..b1 with ai != bi.
      std::vector<std::string> out;
      for (int i = 0; i < 32; ++i) {
        size_t n = 1 + (i / 2) % 4;
        std::string s;
        if (i % 2 == 0) {
          std::string left = Str(rng, n, 3), right;
          for (char c : left) {
            right.insert(right.begin(),
                         static_cast<char>('a' + (c - 'a' + 1 + rng() % 2) % 3));
          }
          s = left + right;
        } else {
          s = Str(rng, 2 * n, 3);
        }
        unary("R_mk", s);
        if (seqdl::IsMarkedPair(s)) out.push_back(FactLine("S_mk", {CharPath(s)}));
      }
      Add("ex46_marked", "_mk", "S_mk", out);
    }
    {  // Example 2.2, sized tiny: its triple self-join is cubic in |T|.
       // With the needles a and b every haystack position is exactly one
       // marked occurrence, so |T| is 6 whatever the seed draws.
      std::set<std::string> hay, needles = {"a", "b"};
      while (hay.size() < 3) hay.insert(Str(rng, 2, 2));
      for (const std::string& s : hay) unary("R_occ", s);
      for (const std::string& s : needles) unary("S_occ", s);
      std::vector<std::string> out;
      if (seqdl::CountMarkedOccurrences(hay, needles) >= 3) {
        out.push_back(FactLine("A_occ", {}));
      }
      Add("ex22_three_occurrences", "_occ", "A_occ", out);
    }

    base_facts_ = RenderLines(facts);
    seqdl::ServiceOptions sopts;
    sopts.result_cache_entries = 0;
    SEQDL_RETURN_IF_ERROR(Start(base_facts_, {}, std::move(sopts), 1));

    // Warm-up: compile every program and serve it once.
    OpLog warm;
    for (int round = 0; round < 2; ++round) Cycle(&warm, nullptr);
    if (warm.Bad() != 0) {
      return Status::Internal("corpus_eval warm-up: " + warm.first_error());
    }
    return Status::OK();
  }

  Status RunPhase(double seconds, OpLog* log,
                  ReplyCounters* counters) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) Cycle(log, counters);
    return Status::OK();
  }

  ReplayInputs Replay() const override {
    ReplayInputs in;
    for (const Case& c : cases_) in.programs.push_back({c.id, c.text, c.output_rel});
    in.base_facts = base_facts_;
    in.batch_facts = FactLine("R_rev", {CharPath("abcabc")}) + "\n" +
                     FactLine("R_pm", {PathText({"co", "act1", "rp"})}) +
                     "\n" + FactLine("R_reach", {PathText({"b", "a"})}) + "\n";
    return in;
  }

  std::vector<std::string> Describe() const override {
    return {"clients=1 closed-loop, read-only",
            "server_workers=2 result_cache_entries=0 (every run a full "
            "fixpoint) sync=in-memory",
            "programs: ex21_nfa reach_ab process_mining ex43_reverse "
            "ex43_reverse_noarity ex31_only_as_e ex44_only_as_noeq "
            "ex46_marked ex22_three_occurrences(tiny)"};
  }

  void Report(Metrics* m) const override {
    for (const auto& [id, lat] : latency_) {
      m->Set("corpus." + id + "_p50_us", Median(lat), "us");
    }
  }

 private:
  void Add(const std::string& id, const std::string& suffix,
           const std::string& output_rel, const std::vector<std::string>& out,
           int pair = -1) {
    cases_.push_back({id, CorpusProgram(id, suffix), output_rel, RenderLines(out),
                      pair});
  }

  /// One pass over every program. With `counters` null (warm-up) no
  /// per-program latency is kept.
  void Cycle(OpLog* log, ReplyCounters* counters) {
    ReplyCounters warm_counters;
    std::vector<std::string> rendered(cases_.size());
    for (size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      seqdl::protocol::RunReply reply;
      const seqdl::protocol::RunReply* r =
          CheckedRun(clients_[0], "read", c.text, c.output_rel, c.expected, log,
                     counters ? counters : &warm_counters, &reply);
      if (r == nullptr) continue;
      rendered[i] = r->rendered;
      if (counters) {
        latency_[c.id].push_back(log->last_us());
      }
      if (c.pair >= 0) {
        // The pair's answers must agree once S_<p> is renamed S_<T(p)>.
        const Case& p = cases_[c.pair];
        if (ReplaceAll(rendered[c.pair], p.output_rel + "(",
                       c.output_rel + "(") != r->rendered) {
          log->NoteError("pair " + p.id + " / " + c.id + " disagree");
          log->Record("pair_check", Outcome::kWrong, 0, 0);
        }
      }
    }
  }

  std::vector<Case> cases_;
  std::string base_facts_;
  std::map<std::string, std::vector<double>> latency_;
};

}  // namespace

std::unique_ptr<Workload> MakeCorpusEval() {
  return std::make_unique<CorpusEval>();
}

}  // namespace perfbench
