// perfbench: the request-path benchmark. One workload per invocation:
//
//   perfbench --workload wire_mixed|wire_single|inproc_mixed|paper_apps --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//             [--expected-dir DIR] [--golden-dir DIR] [--record-expected]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced run,
// prints the per-layer metrics and writes a Chrome trace to --trace-out.
// Every traced run prints every per-layer metric (see run_traced).
// The last stdout line is the JSON result; the exit code is nonzero when
// any output check failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace {

perfbench::Options parse_args(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--expected-dir") {
      options.expected_dir = value();
    } else if (arg == "--golden-dir") {
      options.golden_dir = value();
    } else if (arg == "--record-expected") {
      options.record_expected = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!(options.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return options;
}

void run_workload(const perfbench::Options& options, perfbench::Report& report) {
  if (options.workload == "wire_mixed") {
    perfbench::run_mixed(options, true, 2, report);
  } else if (options.workload == "wire_single") {
    perfbench::run_mixed(options, true, 1, report);
  } else if (options.workload == "inproc_mixed") {
    perfbench::run_mixed(options, false, 2, report);
  } else if (options.workload == "paper_apps") {
    perfbench::run_paper_apps(options, report);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
}

/// A traced run: the traced section of its own workload, then that of the
/// companion workload, which covers the layers its own does not reach (net,
/// service, supervisor and js live on the wire; rivertrail and the Table 1
/// apps on paper_apps). The two share --seconds; of the companion, only the
/// metrics the own section did not produce are kept. A wire companion gets
/// half the time, because service.wait_ms_p99 needs 1000 traced requests;
/// a third suffices for paper_apps, which needs each of its 36 (app, mode)
/// kinds a few times.
void run_traced(const perfbench::Options& options, perfbench::Report& report) {
  perfbench::Options own = options;
  perfbench::Options companion = options;
  companion.workload = options.workload == "paper_apps" ? "wire_mixed" : "paper_apps";
  const double share = companion.workload == "wire_mixed" ? 0.5 : 1.0 / 3;
  own.seconds = options.seconds * (1 - share);
  companion.seconds = options.seconds * share;
  std::string& trace_out = companion.trace_out;
  if (trace_out.ends_with(".json")) trace_out.resize(trace_out.size() - 5);
  if (!trace_out.empty()) trace_out += "." + companion.workload + ".json";

  run_workload(own, report);
  perfbench::Report side;
  run_workload(companion, side);
  report.absorb(companion.workload, side);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Report report;
  try {
    const perfbench::Options options = parse_args(argc, argv);
    if (options.trace && !options.record_expected) {
      run_traced(options, report);
    } else {
      run_workload(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
