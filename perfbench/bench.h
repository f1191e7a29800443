// Shared machinery of the seqdl end-to-end benchmark: clocks, per-op
// latency logs, the span tracer and the traced RequestHandler wrapper,
// steady-state fingerprints, and the metric sink that prints the report
// and the final JSON line.
//
// Tracing is off for the end-to-end run; the wrapper then costs one
// relaxed atomic load per request. Spans are recorded only from this
// directory's code (client calls, server handlers), kept in memory and
// written out when the run ends.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/server/protocol.h"
#include "src/server/server.h"

namespace perfbench {

using seqdl::Result;
using seqdl::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a 64 over a wire payload: the key that pairs a client span with
/// the server span handling the same request.
uint64_t HashBytes(std::string_view bytes);

// --- Operation accounting ---------------------------------------------------

/// A failed, refused or wrong-answer operation is recorded with this
/// latency, so it misses every latency limit.
constexpr double kFailureLatencyUs = 1e9;

/// Outcome of one client operation.
enum class Outcome { kOk, kFailed, kRefused, kWrong };

/// Latency samples in bounded memory. Every stride-th sample is kept;
/// when the buffer fills, every other kept sample is dropped and the
/// survivors' weights double, so a phase of any length keeps an evenly
/// spaced, weighted subsample (the benchmark's own bookkeeping must not
/// dominate the peak RSS it reports).
class LatencySamples {
 public:
  void Add(double us);
  void Merge(const LatencySamples& o);
  /// Weighted nearest-rank percentile (0 <= q <= 1); 0 when empty.
  double Percentile(double q) const;
  /// Operations seen (not samples kept).
  uint64_t count() const { return seen_; }

 private:
  static constexpr size_t kCapacity = 1 << 14;
  std::vector<float> us_;
  std::vector<uint32_t> weight_;
  uint64_t stride_ = 1;
  uint64_t seen_ = 0;
};

/// Counts and latencies of one operation type.
struct OpStats {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  uint64_t wrong = 0;
  LatencySamples latency;
  /// The same latencies split by OpLog::kWindowNs windows of the phase.
  std::vector<LatencySamples> windows;
};

/// Per-thread operation log; merged after the timed phase.
class OpLog {
 public:
  /// Completions are counted per tick, for the first/second-half split.
  static constexpr int64_t kTickNs = 10'000'000;
  /// Latencies are also kept per window, for medians over windows.
  static constexpr int64_t kWindowNs = 3'000'000'000;

  /// Sets the instant ticks and windows count from; call before a
  /// phase's clients start.
  static void StartPhase(int64_t origin_ns);

  void Record(const std::string& type, Outcome outcome, int64_t start_ns,
              int64_t end_ns);
  /// Records an error Status as kRefused (admission / resource refusals)
  /// or kFailed (everything else).
  void RecordError(const std::string& type, const Status& st,
                   int64_t start_ns, int64_t end_ns);
  void Merge(const OpLog& other);
  const std::map<std::string, OpStats>& ops() const { return ops_; }
  /// Completed operations per tick since the phase origin.
  const std::vector<uint32_t>& ticks() const { return ticks_; }
  uint64_t Attempted() const;
  uint64_t Bad() const;  ///< failed + refused + wrong
  /// Latency of the most recent Record, in microseconds.
  double last_us() const { return last_us_; }
  /// First mismatch seen, for the report.
  const std::string& first_error() const { return first_error_; }
  void NoteError(const std::string& what) {
    if (first_error_.empty()) first_error_ = what;
  }

 private:
  std::map<std::string, OpStats> ops_;
  std::vector<uint32_t> ticks_;
  double last_us_ = 0;
  std::string first_error_;
};

/// Linear-interpolated percentile of `v` (0 <= q <= 1); sorts a copy.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// --- Tracing ----------------------------------------------------------------

struct Span {
  const char* name = "";  ///< "client", "server", "shard"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t key = 0;    ///< HashBytes of the request payload
  uint64_t bytes = 0;  ///< reply frame bytes (server spans)
  uint64_t id = 0;     ///< assigned when the run ends
  uint64_t parent = 0;
  uint64_t request = 0;
  double us() const { return (end_ns - start_ns) / 1e3; }
};

/// Process-wide span store. Recording is a mutex-guarded push_back into
/// a buffer reserved when tracing is enabled; spans past its capacity are
/// counted and dropped, so a fast workload cannot grow it without bound.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 400'000;

  static Tracer& Get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void Enable(bool on);
  void Record(const Span& s);
  std::vector<Span> Take();
  uint64_t dropped();

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Wraps a server's handler (ServiceRequestHandler or CoordinatorHandler)
/// and records one span per request while tracing is on.
class TracingHandler : public seqdl::RequestHandler {
 public:
  TracingHandler(seqdl::RequestHandler& inner, const char* layer)
      : inner_(inner), layer_(layer) {}
  // Servers hold it by reference.
  TracingHandler(const TracingHandler&) = delete;
  TracingHandler& operator=(const TracingHandler&) = delete;
  std::string Handle(const std::string& payload,
                     const std::function<bool()>& cancel,
                     bool* shutdown) override;

 private:
  seqdl::RequestHandler& inner_;
  const char* layer_;
};

/// Times one client call (start at construction, end at Done) and records
/// it as a root span while tracing is on. `payload` yields the encoded
/// request minus its length prefix; it is only called when tracing is on.
struct ClientTimer {
  explicit ClientTimer(const std::function<std::string()>& payload);
  void Done();
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t key = 0;
};

/// Payload of the frame Client::Run sends for these arguments.
std::string RunPayload(const std::string& program,
                       const std::string& output_rel);

// --- Steady state -----------------------------------------------------------

/// What must not grow across a timed phase.
struct Fingerprint {
  uint64_t facts = 0;
  uint64_t segments = 0;
  uint64_t paths = 0;  ///< Universe::num_paths(), summed over nodes
  uint64_t programs = 0;
  uint64_t views = 0;
  std::string ToString() const;
  bool operator==(const Fingerprint&) const = default;
};

// --- Metrics ----------------------------------------------------------------

/// Ordered metric sink: report lines for every metric set, and the JSON
/// object for a chosen list of names.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Report lines for every metric set so far.
  void PrintReport(const char* prefix) const;
  /// {"name": {"value": v, "unit": u}, ...} restricted to `names`.
  std::string Json(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double PeakRssMb();

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- Input text helpers -----------------------------------------------------

/// Renders a path of atoms the way Universe::FormatPath does.
std::string PathText(const std::vector<std::string>& atoms);
/// One fact line "Rel(p1, p2)." as Instance::ToString renders it.
std::string FactLine(const std::string& rel,
                     const std::vector<std::string>& paths);
/// Sorts, dedupes and newline-joins fact lines: the Instance::ToString
/// layout.
std::string RenderLines(std::vector<std::string> lines);
/// Appends `suffix` to every relation name (identifiers starting with an
/// upper-case letter) of a program text, so several corpus programs can
/// share one database without their relations colliding.
std::string Relabel(const std::string& program, const std::string& suffix);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
