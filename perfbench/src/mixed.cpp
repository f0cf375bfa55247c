// wire_mixed, wire_single and inproc_mixed: the seeded mixed stream, closed
// loop, against a 2-worker pool and a service with max_active = 2; over
// loopback AnalysisClient -> AnalysisServer (wire) or straight into
// AnalysisService::submit().wait() (in-process), from two callers (one on
// wire_single).

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "fuzz/generator.h"
#include "js/lexer.h"
#include "net/client.h"
#include "net/server.h"
#include "rivertrail/thread_pool.h"
#include "support/obs.h"
#include "support/clock.h"
#include "support/rng.h"

namespace perfbench {

namespace {

// Corpus: 2 entries per program. Throughput varies with the seed through
// the heaviest programs drawn: over 10 seeds, the quartile spread of
// wire_single's throughput was 9% with 320 programs and 3% with 640.
constexpr std::size_t kPrograms = 640;
constexpr std::size_t kIdleConnections = 2;  // the idle-ingress probe
constexpr std::size_t kWorkers = 2;
constexpr int kSetups = 15;                // setup_s is their median
constexpr std::size_t kWarmupPrograms = 24;
constexpr std::size_t kMode0Replays = 1010;  // a mode-0 p99 with 10 beyond it
constexpr double kIdleWindowS = 1.0;
constexpr int kSlices = 5;  // untraced/traced slice pairs in the traced run

/// The program under test: pool, service and, on the wire, server plus one
/// connected client per caller.
struct Stack {
  rivertrail::ThreadPool pool;
  AnalysisService service;
  std::optional<net::AnalysisServer> server;
  std::vector<std::unique_ptr<net::AnalysisClient>> clients;

  static ServiceOptions service_options() {
    ServiceOptions options;
    options.max_active = kWorkers;
    return options;
  }

  Stack(bool wire, std::size_t callers)
      : pool(unsigned(kWorkers)), service(pool, service_options()) {
    if (!wire) return;
    server.emplace(service);
    std::string error;
    if (!server->start(&error)) throw std::runtime_error("server start: " + error);
    for (std::size_t i = 0; i < callers; ++i) connect_client();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  ~Stack() {
    clients.clear();
    if (server) server->stop();
  }

  void connect_client() {
    net::ClientOptions options;
    options.port = server->port();
    options.io_timeout_ms = 60'000;
    clients.push_back(std::make_unique<net::AnalysisClient>(options));
    std::string error;
    if (!clients.back()->connect(&error)) {
      throw std::runtime_error("client connect: " + error);
    }
  }

  /// One request, as the caller sees it: the served outcome, or why none.
  std::string send(std::size_t client, const Entry& entry,
                   ServiceOutcome& outcome) {
    if (!server) {
      outcome = service.submit(service_request(entry)).wait();
      return {};
    }
    net::WireResult result = clients[client]->roundtrip(wire_request(entry));
    if (result.kind == net::WireResult::Kind::ErrorFrame) {
      return std::string("error frame ") + net::to_string(result.error.code) +
             ": " + result.error.message;
    }
    if (result.kind == net::WireResult::Kind::Transport) {
      return "transport: " + result.transport;
    }
    outcome = std::move(result.outcome);
    return {};
  }
};

struct Sample {
  double ms;
  std::uint32_t entry;
  std::uint64_t request;
};

struct Phase {
  std::vector<Sample> samples;
  double seconds = 0;
  std::size_t attempts = 0;   // supervisor attempts over all sessions
  std::size_t degraded = 0;
  [[nodiscard]] double rps() const { return double(samples.size()) / seconds; }
  void add(const Phase& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    seconds += other.seconds;
    attempts += other.attempts;
    degraded += other.degraded;
  }
};

/// Everything one mixed run shares: corpus, isolated references, the
/// request order, and the report.
struct Mixed {
  bool wire;
  std::vector<Entry> corpus;
  std::vector<SessionOutcome> reference;
  std::vector<double> iso_run_one_ms;  // built-in body, isolated
  std::vector<std::uint32_t> order;
  std::size_t cursor = 0;
  Report& report;

  Mixed(bool wire_, Report& report_) : wire(wire_), report(report_) {}

  /// Records a failure unless `outcome` (or the transport failure `sent`)
  /// matches the isolated reference of corpus entry `index`.
  void check(std::size_t index, const std::string& sent,
             const ServiceOutcome& outcome, const char* where) {
    std::string cause = sent;
    if (cause.empty() && outcome.state != ServiceState::Completed) {
      cause = std::string("state ") + to_string(outcome.state) + " " + outcome.shed_reason;
    }
    if (cause.empty()) check(index, outcome.session, where);
    else report.fail(std::string(where) + " " + corpus[index].name + ": " + cause);
  }

  void check(std::size_t index, const SessionOutcome& got, const char* where) {
    const std::string cause = compare_outcome(reference[index], got);
    if (!cause.empty()) report.fail(std::string(where) + " " + corpus[index].name + ": " + cause);
  }

  /// Closed loop: `clients` callers, each sending its next request only
  /// after the previous one answered, for `seconds`.
  Phase run(Stack& stack, std::size_t clients, double seconds, Tracer* tracer) {
    Phase phase;
    std::atomic<std::size_t> next{cursor};
    std::vector<Phase> local(clients);
    const std::int64_t start = now_ns();
    const std::int64_t stop_ns = start + std::int64_t(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Phase& mine = local[c];
        while (now_ns() < stop_ns) {
          const std::size_t k = next.fetch_add(1);
          const std::uint32_t index = order[k % order.size()];
          const Entry& entry = corpus[index];
          ServiceOutcome outcome;
          std::string sent;
          const std::int64_t t0 = now_ns();
          {
            Span root(tracer, "bench", "request", k);
            Span call(tracer, wire ? "net" : "service",
                      wire ? "roundtrip" : "submit_wait", k, root.id());
            sent = stack.send(c, entry, outcome);
          }
          mine.samples.push_back({ms_since(t0), index, k});
          mine.attempts += std::size_t(outcome.session.attempts);
          mine.degraded += outcome.state == ServiceState::Degraded ? 1 : 0;
          check(index, sent, outcome, "live");
        }
      });
    }
    for (auto& t : threads) t.join();
    phase.seconds = ms_since(start) / 1e3;
    cursor = next.load();
    for (Phase& mine : local) {
      phase.add(mine);
    }
    report.attempt(phase.samples.size());
    return phase;
  }
};

/// Fixed warm-up: the same programs on every run and every seed.
void warm_up(Stack& stack, Report& report) {
  for (std::size_t i = 0; i < kWarmupPrograms; ++i) {
    Entry entry;
    fuzz::GenOptions gen;
    gen.use_timers = i % 4 == 3;
    entry.timers = gen.use_timers;
    entry.source = fuzz::generate_program(0x5eed0000 + i, gen);
    entry.mode = i % 2 == 0 ? 0 : 3;
    entry.name = "warmup-" + std::to_string(i);
    ServiceOutcome outcome;
    const std::string sent = stack.send(0, entry, outcome);
    if (!sent.empty() || outcome.state != ServiceState::Completed) {
      report.fail("warm-up " + entry.name + ": " +
                  (sent.empty() ? to_string(outcome.state) : sent));
    }
  }
}

std::size_t wire_bytes_of(const net::ServerStats& stats) {
  return stats.bytes_read + stats.bytes_written;
}

double hist_sum(const obs::Snapshot& snap, const char* name) {
  const obs::SnapshotEntry* entry = snap.find(name);
  return entry == nullptr ? 0.0 : double(entry->hist.sum);
}

}  // namespace

void run_mixed(const Options& options, bool wire, std::size_t callers, Report& report) {
  Mixed mixed(wire, report);
  // Inputs and their isolated references come first, before any timing.
  {
    rivertrail::ThreadPool ref_pool(1);
    SessionSupervisor supervisor(ref_pool);
    Rng rng(options.seed);
    std::size_t rejected = 0;
    for (std::size_t p = 0; p < kPrograms;) {
      const Entry program = draw_program(rng, p);
      for (const int mode : {0, 3}) {
        const Entry entry = at_mode(program, mode);
        const std::int64_t t0 = now_ns();
        SessionOutcome outcome = supervisor.run_one(session_request(entry));
        const double ms = ms_since(t0);
        if (mode == 0 && !program.object_graph &&
            (outcome.state != SessionState::Completed ||
             outcome.cpu_ns > kMaxTicks * VirtualClock::kTickNs)) {
          break;  // over the virtual-time budget: draw the next program
        }
        if (outcome.state != SessionState::Completed) {
          report.fail("reference " + entry.name + ": " + to_string(outcome.state) +
                      " " + outcome.error);
        }
        mixed.corpus.push_back(entry);
        mixed.reference.push_back(std::move(outcome));
        mixed.iso_run_one_ms.push_back(ms);
        report.attempt();
      }
      if (mixed.corpus.size() == 2 * (p + 1)) {
        ++p;
      } else {
        ++rejected;
      }
    }
    report.note("corpus: " + std::to_string(kPrograms) + " programs, " +
                std::to_string(rejected) + " generator draws over the tick budget replaced");
    Rng shuffle(options.seed ^ 0x0fde7a11);
    for (std::uint32_t i = 0; i < mixed.corpus.size(); ++i) mixed.order.push_back(i);
    for (std::size_t i = mixed.order.size(); i > 1; --i) {
      std::swap(mixed.order[i - 1], mixed.order[shuffle.next_below(i)]);
    }
  }
  // Set-up: pool, service, server and clients, plus the fixed warm-up.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    stack = std::make_unique<Stack>(wire, callers);
    warm_up(*stack, report);
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  if (!options.trace) {
    const Phase live = mixed.run(*stack, callers, options.seconds, nullptr);
    const auto ms_of = [&](int mode) {
      std::vector<double> ms;
      for (const Sample& sample : live.samples) {
        if (mode < 0 || mixed.corpus[sample.entry].mode == mode) ms.push_back(sample.ms);
      }
      return ms;
    };
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
    report.metric("throughput_rps", live.rps(), "1/s", live.samples.size());
    report.latency("latency_p50_ms", ms_of(-1), 0.50);
    report.latency_note("latency_p90_ms", ms_of(-1), 0.90);
    report.latency_note("latency_p99_ms", ms_of(-1), 0.99);
    for (const int mode : {0, 3}) {
      const std::string suffix = ".mode" + std::to_string(mode);
      report.latency("latency_p50_ms" + suffix, ms_of(mode), 0.50);
      report.latency_note("latency_p90_ms" + suffix, ms_of(mode), 0.90);
      report.latency_note("latency_p99_ms" + suffix, ms_of(mode), 0.99);
    }
    stack.reset();
    report_peak_rss(report);
    return;
  }

  // --- traced run --------------------------------------------------------------
  Tracer tracer;
  const double s = options.seconds;
  // Untraced and traced slices alternate, so the overhead estimate does
  // not depend on which came first; the first slice is a tenth of the
  // two-caller section, after which RSS growth is measured.
  Phase untraced, traced;
  double reclaim_us = 0, steals = 0, parks = 0;
  std::size_t wire_bytes = 0;
  double rss_after_tenth = 0;
  for (int slice = 0; slice < kSlices; ++slice) {
    untraced.add(mixed.run(*stack, callers, 0.7 * s / (2 * kSlices), nullptr));
    if (slice == 0) rss_after_tenth = current_rss_mb();
    const obs::Snapshot before = stack->service.metrics_snapshot();
    const std::size_t bytes_before = wire ? wire_bytes_of(stack->server->stats()) : 0;
    traced.add(mixed.run(*stack, callers, 0.7 * s / (2 * kSlices), &tracer));
    const obs::Snapshot after = stack->service.metrics_snapshot();
    if (wire) wire_bytes += wire_bytes_of(stack->server->stats()) - bytes_before;
    reclaim_us += hist_sum(after, "epoch.reclaim_pass_us") -
                  hist_sum(before, "epoch.reclaim_pass_us");
    steals += double(after.value("sched.steals") - before.value("sched.steals"));
    parks += double(after.value("sched.parks") - before.value("sched.parks"));
  }
  Phase single = mixed.run(*stack, 1, 0.3 * s, &tracer);
  const double rss_end = current_rss_mb();

  // Isolated replay of every corpus entry through each layer, one at a
  // time. Replay spans reuse the id of a live request of the same entry.
  std::unordered_map<std::uint32_t, std::uint64_t> live_id;
  for (const Sample& sample : traced.samples) live_id.emplace(sample.entry, sample.request);
  SessionSupervisor supervisor(stack->pool);
  const std::size_t mode0_reps = (kMode0Replays + kPrograms - 1) / kPrograms;
  const std::size_t n = mixed.corpus.size();
  std::vector<double> net_self_ms(n, 0), service_self_ms(n, 0), iso_total_ms(n, 0);
  std::vector<double> run_ms_by_entry(n, 0), mode1_run_ms(n, 0);
  std::vector<double> lex_us, parse_us, setup_us, run0_us, event_loop_ms,
      supervisor_self_us, codec_us, ledger_kb, tokens, events;
  double lex_bytes = 0, lex_s = 0, parse_bytes = 0, parse_s = 0;
  std::uint64_t read_hits = 0, read_misses = 0, write_hits = 0, write_misses = 0;
  for (std::size_t index = 0; index < n; ++index) {
    const Entry& entry = mixed.corpus[index];
    const auto found = live_id.find(std::uint32_t(index));
    const std::uint64_t rid =
        found != live_id.end() ? found->second : (std::uint64_t(1) << 40) + index;
    const std::size_t reps = entry.mode == 0 ? mode0_reps : 1;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Span root(&tracer, "bench", "replay", rid);
      {
        Span span(&tracer, "js", "lex", rid, root.id());
        tokens.push_back(double(js::lex(entry.source).size()));
        const double ms = span.elapsed_ms();
        lex_us.push_back(ms * 1e3);
        lex_bytes += double(entry.source.size());
        lex_s += ms / 1e3;
      }
      AttemptProbe probe;
      double run_one_ms = 0;
      {
        Span span(&tracer, "supervisor", "run_one", rid, root.id());
        const SessionOutcome outcome = supervisor.run_one(
            instrumented_request(entry, &tracer, rid, span.id(), &probe));
        run_one_ms = span.elapsed_ms();
        mixed.check(index, outcome, "replay");
      }
      report.attempt();
      supervisor_self_us.push_back((run_one_ms - probe.layers_ms) * 1e3);
      parse_us.push_back(probe.parse_ms * 1e3);
      parse_bytes += double(entry.source.size());
      parse_s += probe.parse_ms / 1e3;
      setup_us.push_back(probe.setup_ms * 1e3);
      if (entry.mode == 0) run0_us.push_back(probe.run_ms * 1e3);
      if (probe.event_loop_ms >= 0) event_loop_ms.push_back(probe.event_loop_ms);
      read_hits += probe.ic_read_hits;
      read_misses += probe.ic_read_misses;
      write_hits += probe.ic_write_hits;
      write_misses += probe.ic_write_misses;
      ledger_kb.push_back(double(probe.ledger_peak) / 1024.0);
      if (rep > 0) continue;
      run_ms_by_entry[index] = probe.run_ms;

      {
        Span span(&tracer, "service", "submit_wait", rid, root.id());
        const ServiceOutcome outcome =
            stack->service.submit(service_request(entry)).wait();
        iso_total_ms[index] = span.elapsed_ms();
        mixed.check(index, {}, outcome, "isolated submit");
      }
      report.attempt();
      service_self_ms[index] = iso_total_ms[index] - run_one_ms;
      if (wire) {
        ServiceOutcome outcome;
        std::string sent;
        {
          Span span(&tracer, "net", "roundtrip", rid, root.id());
          sent = stack->send(0, entry, outcome);
          const double ms = span.elapsed_ms();
          net_self_ms[index] = ms - iso_total_ms[index];
          iso_total_ms[index] = ms;
        }
        mixed.check(index, sent, outcome, "isolated roundtrip");
        report.attempt();
        // Both ends of the codec for this request and its outcome.
        Span span(&tracer, "net", "codec", rid, root.id());
        const auto frame = net::make_request_frame("", wire_request(entry));
        const net::DecodeResult decoded =
            net::decode_frame(frame.data(), frame.size(), kMaxFrameBytes);
        net::WireRequest request_back;
        const bool request_ok = net::decode_request(decoded.frame.payload, request_back);
        const auto response = net::encode_response(1, outcome);
        std::uint32_t id = 0;
        ServiceOutcome outcome_back;
        const bool response_ok = net::decode_response(response, id, outcome_back);
        codec_us.push_back(span.elapsed_ms() * 1e3);
        if (!request_ok || !response_ok || request_back.source != entry.source ||
            outcome_back.session.console != outcome.session.console) {
          report.fail("codec round trip " + entry.name);
        }
      }
      if (entry.mode == 3) {
        Span span(&tracer, "ceres", "count_events", rid, root.id());
        events.push_back(double(count_mode3_events(entry.source, entry.timers)));
      } else {
        AttemptProbe probe1;
        Span span(&tracer, "ceres", "mode1_probe", rid, root.id());
        const SessionOutcome outcome = supervisor.run_one(
            instrumented_request(at_mode(entry, 1), &tracer, rid, span.id(), &probe1));
        if (outcome.state != SessionState::Completed ||
            outcome.console != mixed.reference[index].console) {
          report.fail("mode-1 probe " + entry.name + ": output differs from mode 0");
        }
        mode1_run_ms[index] = probe1.run_ms;
      }
    }
  }

  // Idle ingress: voluntary context switches with two idle connections
  // open, minus the same window with none.
  double idle_wakeups = 0;
  if (wire) {
    stack->clients.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto window = [] {
      const std::int64_t v0 = voluntary_switches();
      std::this_thread::sleep_for(std::chrono::duration<double>(kIdleWindowS));
      return double(voluntary_switches() - v0) / kIdleWindowS;
    };
    const double quiet = window();
    for (std::size_t i = 0; i < kIdleConnections; ++i) stack->connect_client();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    idle_wakeups = window() - quiet;
  }

  // --- per-layer metrics -----------------------------------------------------
  std::vector<double> wait_ms, unattributed_ms;
  for (const Sample& sample : traced.samples) {
    wait_ms.push_back(sample.ms - net_self_ms[sample.entry] -
                      mixed.iso_run_one_ms[sample.entry]);
    unattributed_ms.push_back(sample.ms - iso_total_ms[sample.entry]);
  }
  // Entries 2p and 2p + 1 are program p at modes 0 and 3.
  std::vector<double> mode3_over_mode0, mode1_over_mode0;
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    mode3_over_mode0.push_back(run_ms_by_entry[i + 1] / run_ms_by_entry[i]);
    mode1_over_mode0.push_back(mode1_run_ms[i] / run_ms_by_entry[i]);
  }
  const ServiceStats stats = stack->service.stats();
  const double requests = double(traced.samples.size());

  if (wire) {
    report.metric("net.self_ms_p50", median(net_self_ms), "ms", net_self_ms.size());
    report.metric("net.codec_us_p50", median(codec_us), "us", codec_us.size());
    report.metric("net.bytes_per_req", double(wire_bytes) / requests, "B");
    report.metric("net.idle_wakeups_per_s", idle_wakeups, "1/s");
    report.metric("net.error_frames", double(stack->server->stats().error_frames), "count");
  }
  report.latency("service.wait_ms_p50", wait_ms, 0.50);
  report.latency("service.wait_ms_p99", wait_ms, 0.99);
  report.metric("service.self_ms_p50", median(service_self_ms), "ms", service_self_ms.size());
  report.metric("service.concurrency_gain", traced.rps() / single.rps(), "ratio");
  report.metric("service.reclaim_ms_per_req",
                reclaim_us / 1e3 / requests,
                "ms");
  report.metric("service.shed",
                double(stats.shed_queue_full + stats.shed_memory + stats.shed_shutdown),
                "count");
  report.metric("service.queue_high_water", double(stats.queue_high_water), "count");
  report.metric("service.shared_structure_bytes", double(stats.shared_structure_bytes), "B");
  report.metric("governor.max_underestimate_bytes",
                double(stack->service.governor().max_underestimate()), "B");

  report.metric("supervisor.self_us_p50", median(supervisor_self_us), "us",
                supervisor_self_us.size());
  std::size_t sessions = 0, attempts = 0, degraded = 0;
  for (const Phase* phase : {&untraced, &traced, &single}) {
    sessions += phase->samples.size();
    attempts += phase->attempts;
    degraded += phase->degraded;
  }
  report.metric("supervisor.useful_attempt_ratio", double(sessions) / double(attempts), "ratio");
  report.metric("supervisor.degraded_ratio", double(degraded) / double(sessions), "ratio");

  report.metric("js.lex_us_p50", median(lex_us), "us", lex_us.size());
  report.metric("js.parse_us_p50", median(parse_us), "us", parse_us.size());
  report.metric("js.lex_mb_s", lex_bytes / 1e6 / lex_s, "MB/s");
  report.metric("js.parse_mb_s", parse_bytes / 1e6 / parse_s, "MB/s");
  report.metric("js.tokens_per_req", mean(tokens), "count", tokens.size());

  report.metric("interp.setup_us_p50", median(setup_us), "us", setup_us.size());
  report.metric("interp.run_us_p50.mode0", median(run0_us), "us", run0_us.size());
  if (supports(run0_us.size(), 0.99)) {
    report.metric("interp.run_us_p99.mode0", percentile(run0_us, 0.99), "us", run0_us.size());
  } else {
    report.fail("interp.run_us_p99.mode0: too few samples");
  }
  report.metric("interp.ic_read_hit_ratio",
                double(read_hits) / double(read_hits + read_misses), "ratio");
  report.metric("interp.ic_write_hit_ratio",
                double(write_hits) / double(write_hits + write_misses), "ratio");
  report.metric("interp.ledger_peak_kb_mean", mean(ledger_kb), "KB", ledger_kb.size());

  report.metric("ceres.mode3_over_mode0", median(mode3_over_mode0), "ratio",
                mode3_over_mode0.size());
  report.metric("ceres.mode1_over_mode0", median(mode1_over_mode0), "ratio",
                mode1_over_mode0.size());
  report.metric("ceres.mode3_events_per_req", mean(events), "count", events.size());

  report.metric("dom.event_loop_ms_p50", median(event_loop_ms), "ms", event_loop_ms.size());
  report.metric("rivertrail.steals_per_req", steals / requests, "count");
  report.metric("rivertrail.parks_per_req", parks / requests, "count");
  report.metric("mem.rss_growth_mb", rss_end - rss_after_tenth, "MB");
  report.metric("bench.unattributed_ms_p50", median(unattributed_ms), "ms",
                unattributed_ms.size());
  report.metric("bench.trace_overhead_pct",
                (untraced.rps() / traced.rps() - 1.0) * 100.0, "%");

  stack.reset();
  if (!options.trace_out.empty() && !tracer.write_chrome_json(options.trace_out)) {
    report.fail("could not write trace " + options.trace_out);
  }
  report.note("trace: " + std::to_string(tracer.spans().size()) + " spans -> " +
              options.trace_out);
}

}  // namespace perfbench
