// The mixed request stream: generator programs plus a benchmark-owned family
// of object-graph programs, each requested at Ceres modes 0 and 3, and the
// one sandbox every mixed request runs in, on the wire or not.

#include <string>

#include "bench.h"
#include "fuzz/generator.h"
#include "support/rng.h"

namespace perfbench {

namespace {

// One program in this many is an object-graph program.
constexpr std::size_t kObjectGraphEvery = 8;

std::string num(std::int64_t v) { return std::to_string(v); }

}  // namespace

std::string object_graph_program(std::uint64_t seed) {
  Rng rng(seed);
  // Sized so one session leaks about 50 KB while shared_ptr cycles
  // survive teardown, and allocates several MB against a live set of a few
  // objects, so both show in RSS and in the allocation-counted ledger.
  const std::int64_t self_cycles = rng.next_between(30, 60);
  const std::int64_t mutual_cycles = rng.next_between(15, 30);
  const std::int64_t named_fns = rng.next_between(10, 20);
  const std::int64_t churn = rng.next_between(1500, 3000);
  const std::int64_t live = rng.next_between(3, 8);
  std::string js;
  js += "var ck = " + num(rng.next_between(1, 97)) + ";\n";
  js += "for (var i = 0; i < " + num(self_cycles) + "; i++) {\n"
        "  var o = {id: i, tag: \"n\" + i, pad: [i, i + 1, i + 2]};\n"
        "  o.self = o;\n"
        "  ck = (ck * 31 + o.self.id) % 1000003;\n"
        "}\n";
  js += "for (var j = 0; j < " + num(mutual_cycles) + "; j++) {\n"
        "  var a = {v: j};\n"
        "  var b = {v: j + 1, peer: a};\n"
        "  a.peer = b;\n"
        "  ck = (ck * 31 + a.peer.v + b.peer.v) % 1000003;\n"
        "}\n";
  js += "function make(k) {\n"
        "  function walk(n) { if (n <= 0) { return k; } return 1 + walk(n - 1); }\n"
        "  walk.owner = {fn: walk, k: k};\n"
        "  return walk;\n"
        "}\n"
        "for (var k = 0; k < " + num(named_fns) + "; k++) {\n"
        "  var f = make(k);\n"
        "  ck = (ck * 31 + f(3) + f.owner.k) % 1000003;\n"
        "}\n";
  js += "var keep = [];\n"
        "for (var m = 0; m < " + num(churn) + "; m++) {\n"
        "  var t = {m: m, box: [m, m * 2]};\n"
        "  keep[m % " + num(live) + "] = t;\n"
        "  ck = (ck * 31 + keep[m % " + num(live) + "].box[1]) % 1000003;\n"
        "}\n";
  js += "console.log(\"OG:\" + ck);\n";
  return js;
}

Entry draw_program(Rng& rng, std::size_t program) {
  Entry entry;
  entry.program = program;
  const std::uint64_t seed = rng.next_u64();
  if (program % kObjectGraphEvery == kObjectGraphEvery - 3) {
    entry.object_graph = true;
    entry.source = object_graph_program(seed);
  } else {
    fuzz::GenOptions gen;
    gen.use_timers = program % 4 == 3;
    entry.timers = gen.use_timers;
    entry.source = fuzz::generate_program(seed, gen);
  }
  return entry;
}

Entry at_mode(Entry entry, int mode) {
  entry.mode = mode;
  entry.name = "p" + std::to_string(entry.program) + "-m" + std::to_string(mode);
  return entry;
}

net::WireRequest wire_request(const Entry& entry) {
  net::WireRequest request;
  request.name = entry.name;
  request.source = entry.source;
  request.mode = std::uint8_t(entry.mode);
  request.has_timers = entry.timers;
  request.max_ticks = kMaxTicks;
  return request;
}

SessionRequest session_request(const Entry& entry) {
  // Mirrors what AnalysisServer builds from wire_request(entry), so the
  // wire and in-process paths differ only in the wire between them.
  SessionRequest session;
  session.name = entry.name;
  session.source = entry.source;
  session.mode = entry.mode;
  session.has_timers = entry.timers;
  session.max_ticks = kMaxTicks;
  session.limits.max_source_bytes = kMaxFrameBytes;
  return session;
}

ServiceRequest service_request(const Entry& entry) {
  ServiceRequest request;
  request.session = session_request(entry);
  return request;
}

std::string compare_outcome(const SessionOutcome& want, const SessionOutcome& got) {
  if (got.state != SessionState::Completed) {
    return std::string("state ") + to_string(got.state) + " " + got.error;
  }
  if (got.final_mode != want.final_mode) return "final mode differs";
  if (got.console != want.console) return "console differs";
  if (got.cpu_ns != want.cpu_ns || got.wall_ns != want.wall_ns) {
    return "virtual clocks differ";
  }
  return {};
}

}  // namespace perfbench
