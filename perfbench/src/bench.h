#pragma once

// Shared pieces of the request-path benchmark: timing and percentile
// helpers, the metric report, the in-memory span recorder, the mixed-stream
// corpus, and the layer probes. See perfbench/README.md for the workloads,
// the metric definitions and the per-layer -> end-to-end map.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.h"
#include "support/service.h"
#include "support/rng.h"
#include "support/supervisor.h"

namespace perfbench {

using namespace jsceres;

// --- time and statistics ---------------------------------------------------

std::int64_t now_ns();
inline double ms_since(std::int64_t start_ns) {
  return double(now_ns() - start_ns) / 1e6;
}

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 for an empty set.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);
/// True when `n` samples leave at least 10 beyond the q-th percentile.
bool supports(std::size_t n, double q);

/// Process peak RSS (ru_maxrss) and current RSS, in MB.
double peak_rss_mb();
double current_rss_mb();
class Report;
/// Prints the process peak RSS (ru_maxrss) as a diagnostic line. It is not
/// a bounded metric: it moves with requests served (the cycle leak) and
/// with which large generated programs happen to overlap.
void report_peak_rss(Report& report);
/// Voluntary context switches of the whole process so far.
std::int64_t voluntary_switches();

// --- the report ------------------------------------------------------------

/// What one run prints: named metrics with units and sample counts, plus
/// every failure with its cause. print() writes a readable table and then,
/// as the last line of stdout, the JSON object the contract asks for.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  /// Latency percentile; a sample without 10 values beyond it fails the run.
  void latency(const std::string& name, const std::vector<double>& ms, double q);
  /// Same figure as a printed note only: for tails too noisy to bound.
  void latency_note(const std::string& name, const std::vector<double>& ms, double q);
  void fail(const std::string& cause);
  void attempt(std::size_t n = 1) { attempted_.fetch_add(n); }
  void note(const std::string& line) { notes_.push_back(line); }
  /// Takes in `other`'s attempts, failures and notes (prefixed with
  /// `source`), and those of its metrics this report does not have yet.
  void absorb(const std::string& source, const Report& other);
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  void print() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
  std::atomic<std::size_t> attempted_{0};
};

// --- spans -----------------------------------------------------------------

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` is the id of the enclosing span (0 for a root).
struct SpanRecord {
  const char* layer;
  const char* name;
  std::uint64_t request;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint32_t thread;
  std::int64_t start_ns;
  std::int64_t end_ns;
  [[nodiscard]] double ms() const { return double(end_ns - start_ns) / 1e6; }
};

/// Spans kept in memory and written as Chrome trace-event JSON at exit.
class Tracer {
 public:
  std::uint32_t open_id() { return next_id_.fetch_add(1) + 1; }
  void record(const SpanRecord& span);
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Span duration minus the time its direct children cover.
  [[nodiscard]] static std::vector<double> self_ms(
      const std::vector<SpanRecord>& spans);
  bool write_chrome_json(const std::string& path) const;

 private:
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. It always times its scope; a null tracer records nothing
/// (the untraced phases).
class Span {
 public:
  Span(Tracer* tracer, const char* layer, const char* name,
       std::uint64_t request, std::uint32_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint32_t id() const { return record_.id; }
  [[nodiscard]] double elapsed_ms() const { return ms_since(record_.start_ns); }

 private:
  Tracer* tracer_;
  SpanRecord record_{};
};

// --- the mixed request stream ------------------------------------------------

/// One request kind of the mixed stream: a program at one Ceres mode.
struct Entry {
  std::string name;
  std::string source;
  int mode = 0;
  bool timers = false;
  bool object_graph = false;
  std::size_t program = 0;  // index of the program in the corpus
};

/// The next seeded program of the stream: a generator program (one in four
/// with timers) or, for a fixed share of slots, an object-graph program.
Entry draw_program(Rng& rng, std::size_t program);
/// `entry` as the request at Ceres `mode`.
Entry at_mode(Entry entry, int mode);
/// A seeded object-graph program: self cycles, mutual cycles,
/// self-referential named functions, and churn over a small live set.
std::string object_graph_program(std::uint64_t seed);

/// The sandbox every mixed request runs in, identical in and out of the wire.
/// The tick budget (5 s of virtual time) is also the corpus filter: a drawn
/// generator program whose mode-0 run uses more virtual CPU time than the
/// budget is replaced by the next draw. The filter reads the reference's
/// virtual clock rather than relying on the budget to trip, because some
/// generated programs overrun max_ticks without tripping it.
constexpr std::int64_t kMaxTicks = 500'000;
constexpr std::size_t kMaxFrameBytes = 1u << 20;
net::WireRequest wire_request(const Entry& entry);
ServiceRequest service_request(const Entry& entry);
SessionRequest session_request(const Entry& entry);

/// Empty when `got` completed and equals the isolated reference `want`;
/// otherwise why not.
std::string compare_outcome(const SessionOutcome& want, const SessionOutcome& got);

// --- layer probes --------------------------------------------------------------

/// Per-attempt numbers the instrumented attempt body reads off the engine.
struct AttemptProbe {
  double parse_ms = 0, setup_ms = 0, run_ms = 0;
  double event_loop_ms = -1;  // -1: the request has no timers
  double layers_ms = 0;       // every layer span of the attempt
  std::uint64_t ic_read_hits = 0, ic_read_misses = 0;
  std::uint64_t ic_write_hits = 0, ic_write_misses = 0;
  std::size_t ledger_peak = 0;
};

/// The supervisor's built-in attempt body, reassembled from the public
/// layer entry points with a span around each call (js.parse, ceres.setup,
/// interp.setup, interp.run, dom.setup, dom.event_loop).
SessionRequest instrumented_request(const Entry& entry, Tracer* tracer,
                                    std::uint64_t request, std::uint32_t parent,
                                    AttemptProbe* probe);

/// Hook events a mode-3 run of `source` delivers to the dependence analyzer.
std::uint64_t count_mode3_events(const std::string& source, bool timers);

/// Median sequential and parallel time of each of the five certified
/// kernels on `pool`; a parallel output that differs is a failure.
struct KernelRow {
  std::string name;
  double seq_ms = 0;
  double par_ms = 0;
};
std::vector<KernelRow> kernel_speedups(rivertrail::ThreadPool& pool,
                                       Tracer* tracer, Report& report);

// --- workloads -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string expected_dir;  // perfbench/expected
  std::string golden_dir;    // tests/golden
  bool record_expected = false;
};

void run_mixed(const Options& options, bool wire, std::size_t callers, Report& report);
void run_paper_apps(const Options& options, Report& report);

}  // namespace perfbench
