// paper_apps: the 12 Table 1 applications through workloads::run_workload
// at modes 0, 1 and 3, one session at a time, each checked against the
// expected files kept in perfbench/expected.

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "bench.h"
#include "rivertrail/thread_pool.h"
#include "support/obs.h"
#include "support/rng.h"
#include "workloads/runner.h"

namespace perfbench {

namespace {

namespace wl = workloads;

constexpr int kModes[] = {0, 1, 3};
constexpr int kSetups = 9;  // setup_s is their median
constexpr std::size_t kWorkers = 2;
constexpr int kFrameGraphReps = 5;
constexpr int kSlices = 5;  // untraced/traced slice pairs in the traced run

wl::Mode to_mode(int mode) {
  return mode == 3 ? wl::Mode::Dependence
         : mode == 1 ? wl::Mode::Lightweight
                     : wl::Mode::Uninstrumented;
}

std::string slug(const std::string& name) {
  std::string out;
  for (const char ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      out += char(std::tolower(static_cast<unsigned char>(ch)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The dependence report exactly as tests/golden/*.mode3.txt records it.
std::string golden_serialize(const wl::InstrumentedRun& run) {
  std::ostringstream out;
  out << run.dependence->report();
  out << "summaries:\n";
  for (const auto& [loop_id, s] : run.dependence->summaries()) {
    out << "loop " << loop_id << ": a=" << s.shared_var_writes
        << " b=" << s.shared_prop_writes << " c=" << s.flow_deps
        << " reads=" << s.shared_reads << " private=" << s.private_writes
        << " conflicts=" << s.conflicting_write_sites
        << " recursion=" << (s.recursion_detected ? 1 : 0) << "\n";
  }
  out << "globals:";
  for (const auto& w : run.dependence->warnings()) {
    out << " " << (w.global_binding ? 1 : 0);
  }
  out << "\n";
  return out.str();
}

bool has_golden(const std::string& name) {
  return name == "CamanJS" || name == "fluidSim" || name == "Tear-able Cloth";
}

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = in.good();
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The observable result of one session, as the expected file records it.
struct Observed {
  std::string line;     // key=value record
  std::string golden;   // dependence report, for the three golden apps
};

Observed observe(const wl::Workload& workload, int mode,
                 const wl::InstrumentedRun& run) {
  Observed obs;
  char buf[512];
  const std::string& console = run.interp->console_output();
  std::snprintf(buf, sizeof buf,
                "%s mode%d cpu_ns=%" PRId64 " wall_ns=%" PRId64
                " console_fnv=%016" PRIx64 " console_bytes=%zu",
                slug(workload.name).c_str(), mode, run.clock.cpu_ns(),
                run.clock.wall_ns(), fnv1a(console), console.size());
  obs.line = buf;
  if (mode == 1) {
    const wl::LightweightResult row = run.table2_row();
    std::snprintf(buf, sizeof buf, " total_s=%.9f active_s=%.9f in_loops_s=%.9f",
                  row.total_s, row.active_s, row.in_loops_s);
    obs.line += buf;
  }
  if (mode == 3 && has_golden(workload.name)) {
    obs.golden = golden_serialize(run);
    std::snprintf(buf, sizeof buf, " golden_fnv=%016" PRIx64, fnv1a(obs.golden));
    obs.line += buf;
  }
  return obs;
}

struct Kind {
  const wl::Workload* workload;
  int mode;
  std::string key;  // "<slug> mode<m>"
};

/// Expected outputs, read from (or, with --record-expected, written to)
/// perfbench/expected.
class Expected {
 public:
  Expected(const Options& options, Report& report)
      : dir_(options.expected_dir), golden_dir_(options.golden_dir),
        record_(options.record_expected), report_(report) {
    if (record_) return;
    bool ok = false;
    std::istringstream in(read_file(dir_ + "/paper_apps.txt", &ok));
    if (!ok) report_.fail("missing expected file " + dir_ + "/paper_apps.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t second = line.find(' ', line.find(' ') + 1);
      lines_[line.substr(0, second)] = line;
    }
  }

  /// Compare one session; the golden report is compared once per app.
  void check(const Kind& kind, const Observed& obs) {
    if (record_) {
      lines_[kind.key] = obs.line;
      if (!obs.golden.empty()) goldens_[kind.workload->name] = obs.golden;
      return;
    }
    const auto it = lines_.find(kind.key);
    if (it == lines_.end()) {
      report_.fail(kind.key + ": no expected record");
    } else if (it->second != obs.line) {
      report_.fail(kind.key + ": got [" + obs.line + "] expected [" + it->second + "]");
    }
    if (!obs.golden.empty() && golden_checked_.insert(kind.workload->name).second) {
      check_golden(kind.workload->name, obs.golden);
    }
  }

  /// Golden agreement: the run's dependence report must equal the copy in
  /// tests/golden byte for byte (and its hash is in the expected record).
  void check_golden(const std::string& name, const std::string& golden) {
    std::string stem = name;
    std::replace(stem.begin(), stem.end(), ' ', '_');
    bool ok = false;
    const std::string want = read_file(golden_dir_ + "/" + stem + ".mode3.txt", &ok);
    if (!ok) {
      report_.fail(name + ": golden file " + golden_dir_ + "/" + stem +
                   ".mode3.txt not found");
    } else if (want != golden) {
      report_.fail(name + ": mode-3 dependence report differs from tests/golden");
    }
  }

  void write() {
    std::ofstream out(dir_ + "/paper_apps.txt");
    out << "# Expected Table 2 virtual times, clocks and console digests of the\n"
           "# 12 Table 1 applications per Ceres mode (perfbench --record-expected).\n";
    for (const auto& [key, line] : lines_) out << line << "\n";
    for (const auto& [name, golden] : goldens_) check_golden(name, golden);
  }

 private:
  std::string dir_;
  std::string golden_dir_;
  bool record_;
  Report& report_;
  std::map<std::string, std::string> lines_;
  std::map<std::string, std::string> goldens_;
  std::set<std::string> golden_checked_;
};

/// run_workload reassembled with a span around each layer call, so the
/// traced run can split a session into its layers. Steps and order follow
/// workloads/runner.cpp; the caller checks the output is unchanged.
struct LayerTimes {
  double parse_ms = 0, setup_ms = 0, run_ms = 0, event_loop_ms = 0;
  std::uint64_t read_hits = 0, read_misses = 0, write_hits = 0, write_misses = 0;
  std::size_t ledger_peak = 0;
};

Observed instrumented_session(const wl::Workload& workload, int mode,
                              Tracer& tracer, std::uint64_t rid,
                              std::uint32_t parent, LayerTimes& t) {
  const wl::Mode run_mode = to_mode(mode);
  wl::InstrumentedRun run;
  {
    Span span(&tracer, "js", "parse", rid, parent);
    run.program = js::parse(workload.source, workload.name);
    t.parse_ms = span.elapsed_ms();
  }
  {
    Span span(&tracer, "ceres", "setup", rid, parent);
    run.hooks = std::make_unique<interp::HookList>();
    if (run_mode == wl::Mode::Lightweight) {
      run.lightweight = std::make_unique<ceres::LightweightProfiler>(run.clock);
      run.sampler = std::make_unique<ceres::SamplingProfiler>(run.clock);
      run.hooks->add(run.lightweight.get());
      run.hooks->add(run.sampler.get());
    }
    if (run_mode == wl::Mode::Dependence) {
      run.dependence = std::make_unique<ceres::DependenceAnalyzer>(run.program);
      run.hooks->add(run.dependence.get());
    }
  }
  {
    Span span(&tracer, "interp", "setup", rid, parent);
    interp::InterpreterConfig config;
    config.preempt_interval_ticks = workload.preempt_interval_ticks;
    config.preempt_block_ns = workload.preempt_block_ns;
    run.interp = std::make_unique<interp::Interpreter>(
        run.program, run.clock,
        run_mode == wl::Mode::Uninstrumented ? nullptr : run.hooks.get(), config);
    run.interp->define_global(
        "SCALE", interp::Value::number(run_mode == wl::Mode::Dependence
                                           ? workload.dependence_scale
                                           : 1.0));
    t.setup_ms = span.elapsed_ms();
  }
  {
    Span span(&tracer, "dom", "setup", rid, parent);
    run.page = std::make_unique<dom::Page>(*run.interp);
    if (workload.canvas) {
      run.page->add_canvas(workload.canvas_id, workload.canvas_w, workload.canvas_h);
    }
  }
  {
    Span span(&tracer, "interp", "run", rid, parent);
    run.interp->run();
    t.run_ms = span.elapsed_ms();
  }
  {
    Span span(&tracer, "dom", "event_loop", rid, parent);
    run.page->event_loop().push_user_events(workload.events);
    if (workload.pipeline_schedule == rivertrail::PipelineSchedule::FrameGraph) {
      Span pool_span(&tracer, "rivertrail", "frame_pool", rid, span.id());
      run.pool = std::make_unique<rivertrail::ThreadPool>(2);
      run.page->event_loop().enable_frame_graph(
          *run.pool, run.page->canvas_context(workload.canvas_id).get(),
          workload.pipeline_depth);
    }
    run.page->event_loop().run(workload.session_ms);
    if (run.sampler != nullptr) run.sampler->finish();
    t.event_loop_ms = span.elapsed_ms();
  }
  const auto& ic = run.interp->ic_stats();
  t.read_hits = ic.read_hits;
  t.read_misses = ic.read_misses;
  t.write_hits = ic.write_hits;
  t.write_misses = ic.write_misses;
  t.ledger_peak = run.interp->ledger().peak();
  return observe(workload, mode, run);
}

struct SessionSample {
  double ms;
  std::size_t kind;
};

}  // namespace

void run_paper_apps(const Options& options, Report& report) {
  std::vector<Kind> kinds;
  for (const wl::Workload& w : wl::all_workloads()) {
    for (const int mode : kModes) {
      kinds.push_back({&w, mode, slug(w.name) + " mode" + std::to_string(mode)});
    }
  }
  Expected expected(options, report);

  // Session latency covers run_workload and the run's teardown; the output
  // check in between is timed separately and left out of throughput too.
  double check_ms = 0;
  const auto session = [&](const Kind& kind) {
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = 0;
    std::int64_t t2 = 0;
    {
      const wl::InstrumentedRun run = wl::run_workload(*kind.workload, to_mode(kind.mode));
      t1 = now_ns();
      expected.check(kind, observe(*kind.workload, kind.mode, run));
      t2 = now_ns();
    }
    report.attempt();
    check_ms += double(t2 - t1) / 1e6;
    return double(t1 - t0 + now_ns() - t2) / 1e6;
  };

  if (options.record_expected) {
    for (const Kind& kind : kinds) session(kind);
    expected.write();
    report.metric("recorded_sessions", double(kinds.size()), "count");
    return;
  }

  // Set-up: the 2-worker pool plus a fixed warm-up (every app once at
  // mode 0).
  std::vector<double> setup_s;
  std::unique_ptr<rivertrail::ThreadPool> pool;
  for (int i = 0; i < kSetups; ++i) {
    pool.reset();
    const std::int64_t t0 = now_ns();
    pool = std::make_unique<rivertrail::ThreadPool>(unsigned(kWorkers));
    for (const Kind& kind : kinds) {
      if (kind.mode == 0) session(kind);
    }
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  // Closed loop, one session at a time; every cycle is a fresh seeded
  // shuffle of the 36 (app, mode) kinds.
  Rng rng(options.seed);
  std::vector<std::size_t> order;
  std::uint64_t session_id = 0;
  const auto loop = [&](double seconds, Tracer* tracer) {
    std::vector<SessionSample> samples;
    const std::int64_t start = now_ns();
    const double check_start = check_ms;
    while (ms_since(start) < seconds * 1e3) {
      if (order.empty()) {
        for (std::size_t i = 0; i < kinds.size(); ++i) order.push_back(i);
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.next_below(i)]);
        }
      }
      const std::size_t k = order.back();
      order.pop_back();
      Span span(tracer, "workloads", "session", ++session_id);
      samples.push_back({session(kinds[k]), k});
    }
    return std::pair(samples, (ms_since(start) - (check_ms - check_start)) / 1e3);
  };
  const auto by_mode = [&](const std::vector<SessionSample>& samples, int mode) {
    std::vector<double> ms;
    for (const SessionSample& s : samples) {
      if (mode < 0 || kinds[s.kind].mode == mode) ms.push_back(s.ms);
    }
    return ms;
  };

  if (!options.trace) {
    const auto [samples, seconds] = loop(options.seconds, nullptr);
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
    report.metric("throughput_rps", double(samples.size()) / seconds, "1/s",
                  samples.size());
    report.latency("latency_p50_ms", by_mode(samples, -1), 0.50);
    report.latency_note("latency_p90_ms", by_mode(samples, -1), 0.90);
    for (const int mode : {0, 3}) {
      const std::string suffix = ".mode" + std::to_string(mode);
      report.latency("latency_p50_ms" + suffix, by_mode(samples, mode), 0.50);
      report.latency_note("latency_p90_ms" + suffix, by_mode(samples, mode), 0.90);
    }
    report_peak_rss(report);
    return;
  }

  // --- traced run --------------------------------------------------------------
  Tracer tracer;
  const double s = options.seconds;
  // Untraced and traced slices alternate so the overhead estimate does not
  // depend on order; counter deltas cover the traced slices only.
  std::vector<SessionSample> untraced, traced;
  double untraced_s = 0, traced_s = 0, frames = 0, steals = 0, parks = 0;
  for (int slice = 0; slice < kSlices; ++slice) {
    auto [plain, plain_s] = loop(0.4 * s / kSlices, nullptr);
    untraced.insert(untraced.end(), plain.begin(), plain.end());
    untraced_s += plain_s;
    const obs::Snapshot before = obs::snapshot();
    auto [spanned, spanned_s] = loop(0.6 * s / kSlices, &tracer);
    const obs::Snapshot after = obs::snapshot();
    traced.insert(traced.end(), spanned.begin(), spanned.end());
    traced_s += spanned_s;
    frames += double(after.value("frame.committed") - before.value("frame.committed"));
    steals += double(after.value("sched.steals") - before.value("sched.steals"));
    parks += double(after.value("sched.parks") - before.value("sched.parks"));
  }
  const double sessions = double(traced.size());

  // Per (app, mode) session time, from the traced loop.
  std::vector<std::vector<double>> per_kind(kinds.size());
  for (const auto& sample : traced) per_kind[sample.kind].push_back(sample.ms);
  std::map<std::string, double> kind_ms;
  std::map<std::string, std::size_t> k_index;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    k_index[kinds[k].key] = k;
    if (per_kind[k].empty()) {
      report.fail(kinds[k].key + ": no session in the traced loop");
      continue;
    }
    kind_ms[kinds[k].key] = median(per_kind[k]);
  }

  // Layer split: every kind once through the instrumented session.
  std::vector<double> setup_us, run0_us, event_loop_ms, ledger_kb;
  std::uint64_t read_hits = 0, read_misses = 0, write_hits = 0, write_misses = 0;
  std::uint64_t rid = std::uint64_t(1) << 40;
  for (const Kind& kind : kinds) {
    LayerTimes t;
    Span root(&tracer, "workloads", "replay", ++rid);
    const Observed obs = instrumented_session(*kind.workload, kind.mode, tracer, rid,
                                              root.id(), t);
    report.attempt();
    expected.check(kind, obs);
    setup_us.push_back(t.setup_ms * 1e3);
    if (kind.mode == 0) run0_us.push_back(t.run_ms * 1e3);
    event_loop_ms.push_back(t.event_loop_ms);
    ledger_kb.push_back(double(t.ledger_peak) / 1024.0);
    read_hits += t.read_hits;
    read_misses += t.read_misses;
    write_hits += t.write_hits;
    write_misses += t.write_misses;
  }

  std::vector<double> mode3_ratio, mode1_ratio;
  for (const wl::Workload& w : wl::all_workloads()) {
    const std::string stem = slug(w.name);
    for (const int mode : kModes) {
      const std::string key = stem + " mode" + std::to_string(mode);
      if (!kind_ms.count(key)) continue;
      report.metric("workloads." + stem + ".mode" + std::to_string(mode) + "_ms",
                    kind_ms[key], "ms", per_kind[k_index[key]].size());
    }
    const double m0 = kind_ms[stem + " mode0"];
    if (m0 > 0) {
      mode1_ratio.push_back(kind_ms[stem + " mode1"] / m0);
      mode3_ratio.push_back(kind_ms[stem + " mode3"] / m0);
    }
  }

  report.metric("interp.setup_us_p50", median(setup_us), "us", setup_us.size());
  report.metric("interp.run_us_p50.mode0", median(run0_us), "us", run0_us.size());
  report.metric("interp.ic_read_hit_ratio",
                double(read_hits) / double(read_hits + read_misses), "ratio");
  report.metric("interp.ic_write_hit_ratio",
                double(write_hits) / double(write_hits + write_misses), "ratio");
  report.metric("interp.ledger_peak_kb_mean", mean(ledger_kb), "KB", ledger_kb.size());
  report.metric("ceres.mode3_over_mode0", median(mode3_ratio), "ratio", mode3_ratio.size());
  report.metric("ceres.mode1_over_mode0", median(mode1_ratio), "ratio", mode1_ratio.size());
  report.metric("dom.event_loop_ms_p50", median(event_loop_ms), "ms", event_loop_ms.size());
  report.metric("dom.frames_committed", frames / sessions, "count");

  // Observed parallelism: certified kernels, sequential vs the 2-worker
  // pool, and frame-graph vs serial sessions of the frame-graph apps.
  for (const KernelRow& row : kernel_speedups(*pool, &tracer, report)) {
    report.metric("rivertrail.kernel_speedup." + row.name, row.seq_ms / row.par_ms, "ratio");
    report.note("kernel " + row.name + ": seq " + std::to_string(row.seq_ms) + " ms, par " +
                std::to_string(row.par_ms) + " ms");
  }
  const std::pair<const char*, const char*> frame_apps[] = {
      {"cloth", "Tear-able Cloth"}, {"fluid", "fluidSim"},
      {"raytrace", "Realtime Raytracing"}, {"normalmap", "Normal Mapping"}};
  for (const auto& [short_name, app] : frame_apps) {
    const wl::Workload& graph = wl::workload_by_name(app);
    wl::Workload serial = graph;
    serial.pipeline_schedule = rivertrail::PipelineSchedule::Serial;
    std::vector<double> graph_ms, serial_ms;
    std::string graph_console, serial_console;
    ++rid;
    for (int rep = 0; rep < kFrameGraphReps; ++rep) {
      for (const wl::Workload* w : {static_cast<const wl::Workload*>(&serial), &graph}) {
        Span span(&tracer, "rivertrail",
                  w == &graph ? "frame_graph_session" : "serial_session", rid);
        const wl::InstrumentedRun run = wl::run_workload(*w, wl::Mode::Uninstrumented);
        (w == &graph ? graph_ms : serial_ms).push_back(span.elapsed_ms());
        (w == &graph ? graph_console : serial_console) = run.interp->console_output();
      }
    }
    report.attempt();
    if (graph_console != serial_console) {
      report.fail(std::string(app) + ": frame-graph console differs from serial");
    }
    report.metric(std::string("rivertrail.frame_graph_ratio.") + short_name,
                  median(serial_ms) / median(graph_ms), "ratio");
  }
  report.metric("rivertrail.steals_per_req", steals / sessions, "count");
  report.metric("rivertrail.parks_per_req", parks / sessions, "count");

  // Unattributed: session time the layer spans of its replay do not cover.
  const std::vector<SpanRecord> spans = tracer.spans();
  const std::vector<double> self = Tracer::self_ms(spans);
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == "replay") unattributed.push_back(self[i]);
  }
  report.metric("bench.unattributed_ms_p50", median(unattributed), "ms", unattributed.size());
  report.metric("bench.trace_overhead_pct",
                (double(untraced.size()) / untraced_s / (sessions / traced_s) - 1.0) * 100.0,
                "%");

  if (!options.trace_out.empty() && !tracer.write_chrome_json(options.trace_out)) {
    report.fail("could not write trace " + options.trace_out);
  }
  report.note("trace: " + std::to_string(spans.size()) + " spans -> " + options.trace_out);
}

}  // namespace perfbench
