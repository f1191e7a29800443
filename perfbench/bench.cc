#include "perfbench/bench.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// --- OpLog ------------------------------------------------------------------

void LatencySamples::Add(double us) {
  if (seen_++ % stride_ != 0) return;
  us_.push_back(static_cast<float>(us));
  weight_.push_back(static_cast<uint32_t>(stride_));
  if (us_.size() < kCapacity) return;
  size_t kept = 0;
  for (size_t i = 0; i < us_.size(); i += 2, ++kept) {
    us_[kept] = us_[i];
    weight_[kept] = weight_[i] * 2;
  }
  us_.resize(kept);
  weight_.resize(kept);
  stride_ *= 2;
}

void LatencySamples::Merge(const LatencySamples& o) {
  us_.insert(us_.end(), o.us_.begin(), o.us_.end());
  weight_.insert(weight_.end(), o.weight_.begin(), o.weight_.end());
  seen_ += o.seen_;
}

double LatencySamples::Percentile(double q) const {
  if (us_.empty()) return 0;
  std::vector<size_t> order(us_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return us_[a] < us_[b]; });
  double total = 0;
  for (uint32_t w : weight_) total += w;
  double target = q * total, cum = 0;
  for (size_t i : order) {
    cum += weight_[i];
    if (cum >= target) return us_[i];
  }
  return us_[order.back()];
}

namespace {
std::atomic<int64_t> phase_origin_ns{0};
}  // namespace

void OpLog::StartPhase(int64_t origin_ns) {
  phase_origin_ns.store(origin_ns, std::memory_order_relaxed);
}

void OpLog::Record(const std::string& type, Outcome outcome, int64_t start_ns,
                   int64_t end_ns) {
  const int64_t since =
      std::max<int64_t>(0, end_ns - phase_origin_ns.load(std::memory_order_relaxed));
  OpStats& s = ops_[type];
  ++s.attempted;
  switch (outcome) {
    case Outcome::kOk:
      ++s.succeeded;
      break;
    case Outcome::kFailed:
      ++s.failed;
      break;
    case Outcome::kRefused:
      ++s.refused;
      break;
    case Outcome::kWrong:
      ++s.wrong;
      break;
  }
  last_us_ =
      outcome == Outcome::kOk ? (end_ns - start_ns) / 1e3 : kFailureLatencyUs;
  s.latency.Add(last_us_);
  const size_t window = static_cast<size_t>(since / kWindowNs);
  if (s.windows.size() <= window) s.windows.resize(window + 1);
  s.windows[window].Add(last_us_);
  const size_t tick = static_cast<size_t>(since / kTickNs);
  if (ticks_.size() <= tick) ticks_.resize(tick + 1);
  ++ticks_[tick];
}

void OpLog::RecordError(const std::string& type, const Status& st,
                        int64_t start_ns, int64_t end_ns) {
  bool refused = st.code() == seqdl::StatusCode::kFailedPrecondition ||
                 st.code() == seqdl::StatusCode::kResourceExhausted;
  NoteError(type + ": " + st.ToString());
  Record(type, refused ? Outcome::kRefused : Outcome::kFailed, start_ns,
         end_ns);
}

void OpLog::Merge(const OpLog& other) {
  for (const auto& [type, o] : other.ops_) {
    OpStats& s = ops_[type];
    s.attempted += o.attempted;
    s.succeeded += o.succeeded;
    s.failed += o.failed;
    s.refused += o.refused;
    s.wrong += o.wrong;
    s.latency.Merge(o.latency);
    if (s.windows.size() < o.windows.size()) s.windows.resize(o.windows.size());
    for (size_t i = 0; i < o.windows.size(); ++i) s.windows[i].Merge(o.windows[i]);
  }
  if (ticks_.size() < other.ticks_.size()) ticks_.resize(other.ticks_.size());
  for (size_t i = 0; i < other.ticks_.size(); ++i) ticks_[i] += other.ticks_[i];
  if (first_error_.empty()) first_error_ = other.first_error_;
}

uint64_t OpLog::Attempted() const {
  uint64_t n = 0;
  for (const auto& [type, s] : ops_) n += s.attempted;
  return n;
}

uint64_t OpLog::Bad() const {
  uint64_t n = 0;
  for (const auto& [type, s] : ops_) n += s.failed + s.refused + s.wrong;
  return n;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * (v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// --- Tracing ----------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.reserve(kMaxSpans);
  }
  on_.store(on, std::memory_order_relaxed);
}

void Tracer::Record(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
}

uint64_t Tracer::dropped() {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

std::string TracingHandler::Handle(const std::string& payload,
                                   const std::function<bool()>& cancel,
                                   bool* shutdown) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.on()) return inner_.Handle(payload, cancel, shutdown);
  Span s;
  s.name = layer_;
  s.start_ns = NowNs();
  std::string reply = inner_.Handle(payload, cancel, shutdown);
  s.end_ns = NowNs();
  s.key = HashBytes(payload);
  s.bytes = reply.size();
  tracer.Record(s);
  return reply;
}

ClientTimer::ClientTimer(const std::function<std::string()>& payload) {
  if (Tracer::Get().on()) key = HashBytes(payload());
  start_ns = NowNs();
}

void ClientTimer::Done() {
  end_ns = NowNs();
  Tracer& tracer = Tracer::Get();
  if (!tracer.on()) return;
  Span s;
  s.name = "client";
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.key = key;
  tracer.Record(s);
}

std::string RunPayload(const std::string& program,
                       const std::string& output_rel) {
  seqdl::protocol::RunRequest req;
  req.program = program;
  req.output_rel = output_rel;
  return seqdl::protocol::EncodeRunRequest(req).substr(4);
}

// --- Fingerprint ------------------------------------------------------------

std::string Fingerprint::ToString() const {
  std::ostringstream os;
  os << "facts=" << facts << " segments=" << segments << " paths=" << paths
     << " programs=" << programs << " views=" << views;
  return os.str();
}

// --- Metrics ----------------------------------------------------------------

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!entries_.count(name)) order_.push_back(name);
  entries_[name] = Entry{value, unit};
}

void Metrics::PrintReport(const char* prefix) const {
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    std::printf("%s %-34s %.6g %s\n", prefix, name.c_str(), e.value,
                e.unit.c_str());
  }
}

std::string Metrics::Json(const std::vector<std::string>& names) const {
  std::string out = "{";
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = entries_.find(names[i]);
    double v = it == entries_.end() ? 0 : it->second.value;
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + names[i] + "\": {\"value\": " + buf + ", \"unit\": \"" +
           (it == entries_.end() ? std::string() : it->second.unit) + "\"}";
  }
  return out + "}";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Zipf::Zipf(size_t n, double s) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::operator()(std::mt19937_64& rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

// --- Input text -------------------------------------------------------------

std::string PathText(const std::vector<std::string>& atoms) {
  if (atoms.empty()) return "()";
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += "·";
    out += atoms[i];
  }
  return out;
}

std::string FactLine(const std::string& rel,
                     const std::vector<std::string>& paths) {
  std::string line = rel;
  if (!paths.empty()) {
    line += "(";
    for (size_t i = 0; i < paths.size(); ++i) {
      if (i > 0) line += ", ";
      line += paths[i];
    }
    line += ")";
  }
  return line + ".";
}

std::string RenderLines(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

std::string Relabel(const std::string& program, const std::string& suffix) {
  std::string out;
  size_t i = 0;
  while (i < program.size()) {
    char c = program[i];
    bool sigil = c == '$' || c == '@';
    if (sigil || std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i + 1;
      while (j < program.size() &&
             (std::isalnum(static_cast<unsigned char>(program[j])) ||
              program[j] == '_')) {
        ++j;
      }
      out += program.substr(i, j - i);
      if (!sigil && std::isupper(static_cast<unsigned char>(c))) out += suffix;
      i = j;
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

}  // namespace perfbench
