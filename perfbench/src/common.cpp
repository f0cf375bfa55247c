#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "bench.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = std::size_t(std::ceil(q * double(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         double(values.size());
}

bool supports(std::size_t n, double q) {
  return n >= 10 &&
         n - std::size_t(std::ceil(q * double(n))) >= 10;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void report_peak_rss(Report& report) {
  char line[160];
  std::snprintf(line, sizeof line, "%-40s %14.6f MB     (diagnostic)", "peak_rss_mb",
                peak_rss_mb());
  report.note(line);
}

std::int64_t voluntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

// --- report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    return;
  }
  rows_.push_back({name, value, unit, samples});
}

void Report::latency(const std::string& name, const std::vector<double>& ms,
                     double q) {
  if (!supports(ms.size(), q)) {
    fail(name + ": " + std::to_string(ms.size()) +
         " samples leave fewer than 10 beyond the percentile");
    return;
  }
  metric(name, percentile(ms, q), "ms", ms.size());
}

void Report::latency_note(const std::string& name, const std::vector<double>& ms,
                          double q) {
  if (!supports(ms.size(), q)) return;
  char line[160];
  std::snprintf(line, sizeof line, "%-40s %14.6f ms     n=%zu (diagnostic)",
                name.c_str(), percentile(ms, q), ms.size());
  note(line);
}

void Report::fail(const std::string& cause) {
  const std::lock_guard lock(mutex_);
  failures_.push_back(cause);
}

void Report::absorb(const std::string& source, const Report& other) {
  for (const Row& row : other.rows_) {
    const bool have = std::any_of(rows_.begin(), rows_.end(),
                                  [&](const Row& mine) { return mine.name == row.name; });
    if (!have) rows_.push_back(row);
  }
  for (const std::string& line : other.notes_) note(source + ": " + line);
  for (const std::string& cause : other.failures_) fail(source + ": " + cause);
  attempt(other.attempted_.load());
}

void Report::print() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const Row& row : rows_) {
    if (row.samples > 0) {
      std::printf("# %-40s %14.6f %-6s n=%zu\n", row.name.c_str(), row.value,
                  row.unit.c_str(), row.samples);
    } else {
      std::printf("# %-40s %14.6f %s\n", row.name.c_str(), row.value,
                  row.unit.c_str());
    }
  }
  const std::size_t shown = std::min<std::size_t>(failures_.size(), 50);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("# FAIL %s\n", failures_[i].c_str());
  }
  if (failures_.size() > shown) {
    std::printf("# ... and %zu more failures\n", failures_.size() - shown);
  }
  const std::size_t attempted = std::max(attempted_.load(), failures_.size());
  std::printf("# failed_ratio %.6f (%zu of %zu)\n",
              attempted == 0 ? 0.0 : double(failures_.size()) / double(attempted),
              failures_.size(), attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failures_.empty() ? "true" : "false", std::max<std::size_t>(attempted, 1),
              failures_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                rows_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- spans ---------------------------------------------------------------------

namespace {
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1) + 1;
  return index;
}
}  // namespace

Span::Span(Tracer* tracer, const char* layer, const char* name,
           std::uint64_t request, std::uint32_t parent)
    : tracer_(tracer) {
  record_ = {layer, name, request, tracer_ != nullptr ? tracer_->open_id() : 0,
             parent, 0, now_ns(), 0};
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = now_ns();
  record_.thread = thread_index();
  tracer_->record(record_);
}

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::self_ms(const std::vector<SpanRecord>& spans) {
  std::vector<std::size_t> index_of_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id >= index_of_id.size()) index_of_id.resize(spans[i].id + 1, SIZE_MAX);
    index_of_id[spans[i].id] = i;
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].ms();
  // Children of one span run one after another on its thread, so the time
  // they cover is the sum of their durations.
  for (const SpanRecord& span : spans) {
    if (span.parent == 0 || span.parent >= index_of_id.size()) continue;
    const std::size_t parent = index_of_id[span.parent];
    if (parent != SIZE_MAX) self[parent] -= span.ms();
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanRecord& s : all) origin = std::min(origin, s.start_ns);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s.%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"req\": %llu, \"id\": %u, \"parent\": %u}}",
                 i == 0 ? "" : ",\n", s.layer, s.name, s.layer, s.thread,
                 double(s.start_ns - origin) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.request), s.id, s.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
