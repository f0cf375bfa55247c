// Layer probes: the supervisor's attempt body reassembled with a span around
// each layer call, a counter of the hook events mode 3 delivers, and the
// sequential-vs-parallel timing of the certified Rivertrail kernels.

#include <memory>
#include <optional>

#include "bench.h"
#include "ceres/dependence_analyzer.h"
#include "ceres/lightweight_profiler.h"
#include "dom/page.h"
#include "interp/interpreter.h"
#include "js/parser.h"
#include "rivertrail/kernels.h"
#include "rivertrail/thread_pool.h"
#include "workloads/workload.h"

namespace perfbench {

SessionRequest instrumented_request(const Entry& entry, Tracer* tracer,
                                    std::uint64_t request, std::uint32_t parent,
                                    AttemptProbe* probe) {
  SessionRequest session = session_request(entry);
  // Same steps, in the same order, as the supervisor's built-in body
  // (support/supervisor.cpp); the caller checks that the outcome matches.
  session.attempt = [tracer, request, parent, probe](
                        const SessionRequest& req, int mode,
                        const EngineLimits& limits, std::int64_t max_ticks,
                        CancelToken token) {
    // Runs `body` inside a layer span and returns its duration.
    const auto layer = [&](const char* name_layer, const char* name, auto&& body) {
      Span span(tracer, name_layer, name, request, parent);
      body();
      const double ms = span.elapsed_ms();
      probe->layers_ms += ms;
      return ms;
    };
    js::Program program;
    probe->parse_ms = layer("js", "parse", [&] {
      program = js::parse(req.source, "<session:" + req.name + ">", limits);
    });
    VirtualClock clock;
    std::unique_ptr<ceres::DependenceAnalyzer> dependence;
    std::unique_ptr<ceres::LightweightProfiler> lightweight;
    interp::ExecutionHooks* hooks = nullptr;
    if (mode >= 1) {
      layer("ceres", "setup", [&] {
        if (mode >= 3) {
          dependence = std::make_unique<ceres::DependenceAnalyzer>(program);
          hooks = dependence.get();
        } else {
          lightweight = std::make_unique<ceres::LightweightProfiler>(clock);
          hooks = lightweight.get();
        }
      });
    }
    interp::InterpreterConfig config;
    config.max_ticks = max_ticks > 0 ? max_ticks : -1;
    config.limits = limits;
    config.cancel = token;
    std::optional<interp::Interpreter> interp;
    probe->setup_ms =
        layer("interp", "setup", [&] { interp.emplace(program, clock, hooks, config); });
    std::optional<dom::Page> page;
    if (req.has_timers) layer("dom", "setup", [&] { page.emplace(*interp); });
    probe->run_ms = layer("interp", "run", [&] { interp->run(); });
    if (page) {
      probe->event_loop_ms = layer("dom", "event_loop", [&] {
        page->event_loop().run(req.horizon_ms, token);
      });
    }
    if (interp->debug_arg_stack_in_use() != 0) {
      throw RuntimeInvariantError("argument stack not unwound after attempt");
    }
    const auto& ic = interp->ic_stats();
    probe->ic_read_hits = ic.read_hits;
    probe->ic_read_misses = ic.read_misses;
    probe->ic_write_hits = ic.write_hits;
    probe->ic_write_misses = ic.write_misses;
    probe->ledger_peak = interp->ledger().peak();

    AttemptSuccess success;
    success.console = interp->console_output();
    success.cpu_ns = clock.cpu_ns();
    success.wall_ns = clock.wall_ns();
    success.peak_bytes = interp->ledger().peak();
    return success;
  };
  return session;
}

namespace {

/// Counts every hook callback a mode-3 analyzer would receive.
class CountingHooks final : public interp::ExecutionHooks {
 public:
  std::uint64_t events = 0;
  void on_loop_enter(const interp::LoopEvent&) override { ++events; }
  void on_loop_iteration(const interp::LoopEvent&) override { ++events; }
  void on_loop_exit(const interp::LoopEvent&) override { ++events; }
  void on_function_enter(int, const std::string&) override { ++events; }
  void on_function_exit(int) override { ++events; }
  void on_env_created(std::uint64_t) override { ++events; }
  void on_object_created(std::uint64_t, int) override { ++events; }
  void on_memory_batch(const interp::MemoryEvent*, std::size_t count) override {
    events += count;
  }
  void on_host_access(interp::HostAccess, const char*) override { ++events; }
  [[nodiscard]] bool wants_memory_events() const override { return true; }
};

}  // namespace

std::uint64_t count_mode3_events(const std::string& source, bool timers) {
  const js::Program program = js::parse(source);
  VirtualClock clock;
  CountingHooks counter;
  interp::InterpreterConfig config;
  config.max_ticks = kMaxTicks;
  interp::Interpreter interp(program, clock, &counter, config);
  if (timers) {
    dom::Page page(interp);
    interp.run();
    page.event_loop().run(SessionRequest{}.horizon_ms);
  } else {
    interp.run();
  }
  return counter.events;
}

std::vector<KernelRow> kernel_speedups(rivertrail::ThreadPool& pool,
                                       Tracer* tracer, Report& report) {
  namespace kernels = rivertrail::kernels;
  namespace wl = workloads;
  constexpr int kReps = 9;
  std::vector<KernelRow> rows;
  std::uint64_t request = 1u << 30;  // probe ids, apart from live requests

  // Times `seq` and `par` kReps times each, alternating; each callable
  // resets its own input, and `same` compares the two outputs.
  const auto measure = [&](const char* name, auto&& seq, auto&& par,
                           auto&& same) {
    std::vector<double> seq_ms;
    std::vector<double> par_ms;
    ++request;
    for (int rep = 0; rep < kReps; ++rep) {
      {
        Span span(tracer, "rivertrail", "kernel_seq", request);
        seq();
        seq_ms.push_back(span.elapsed_ms());
      }
      {
        Span span(tracer, "rivertrail", "kernel_par", request);
        par();
        par_ms.push_back(span.elapsed_ms());
      }
    }
    report.attempt();
    if (!same()) report.fail(std::string("kernel ") + name + ": parallel output differs");
    rows.push_back({name, median(seq_ms), median(par_ms)});
  };

  {
    const auto& w = wl::workload_by_name("CamanJS");
    const auto image = kernels::make_test_image(320, 240, 11);
    std::vector<std::uint8_t> seq;
    std::vector<std::uint8_t> par;
    measure("caman",
            [&] { seq = image; kernels::pixel_filter_seq(seq, 12, 1.2); },
            [&] {
              par = image;
              kernels::pixel_filter_par(pool, par, 12, 1.2, w.kernel_schedule);
            },
            [&] { return seq == par; });
  }
  {
    const auto& w = wl::workload_by_name("fluidSim");
    const int n = 192;
    std::vector<double> src(std::size_t(n + 2) * std::size_t(n + 2));
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = double(i % 97) / 97.0;
    std::vector<double> seq;
    std::vector<double> par;
    measure("fluid", [&] { kernels::fluid_diffuse_seq(src, seq, n, 0.12); },
            [&] {
              kernels::fluid_diffuse_par(pool, src, par, n, 0.12,
                                         w.kernel_schedule, w.kernel_grain);
            },
            [&] { return seq == par; });
  }
  {
    const auto& w = wl::workload_by_name("Realtime Raytracing");
    kernels::RayScene scene;
    scene.width = 128;
    scene.height = 128;
    std::vector<std::uint8_t> seq;
    std::vector<std::uint8_t> par;
    measure("raytrace", [&] { kernels::raytrace_seq(scene, seq); },
            [&] {
              kernels::raytrace_par(pool, scene, par, w.kernel_schedule,
                                    w.kernel_grain);
            },
            [&] { return seq == par; });
  }
  {
    const auto& w = wl::workload_by_name("Tear-able Cloth");
    const auto cloth = kernels::make_cloth(160, 120);
    std::vector<kernels::ClothParticle> seq;
    std::vector<kernels::ClothParticle> par;
    measure("cloth",
            [&] { seq = cloth; kernels::cloth_integrate_seq(seq, 9.8, 0.016); },
            [&] {
              par = cloth;
              kernels::cloth_integrate_par(pool, par, 9.8, 0.016,
                                           w.kernel_schedule);
            },
            [&] {
              for (std::size_t i = 0; i < seq.size(); ++i) {
                if (seq[i].x != par[i].x || seq[i].y != par[i].y) return false;
              }
              return seq.size() == par.size();
            });
  }
  {
    const auto& w = wl::workload_by_name("Normal Mapping");
    const int width = 192;
    const int height = 144;
    const auto field = kernels::make_height_field(width, height, 5);
    std::vector<std::uint8_t> seq;
    std::vector<std::uint8_t> par;
    measure("normalmap",
            [&] {
              kernels::normal_map_seq(field, width, height, 0.4, 0.5, 0.8, seq);
            },
            [&] {
              kernels::normal_map_par(pool, field, width, height, 0.4, 0.5, 0.8,
                                      par, w.kernel_schedule);
            },
            [&] { return seq == par; });
  }
  return rows;
}

}  // namespace perfbench
