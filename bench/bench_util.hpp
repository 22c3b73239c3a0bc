// Shared helpers for the plain-main speed gates (sweep_speed,
// search_speed).
#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "memx/obs/recorder.hpp"

namespace memx::bench {

/// Print a titled section.
inline void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Emit one instrumented run's RunReport: print the human-readable
/// summary, append the report object under a "report" key into the
/// BENCH_*.json stream (callers write the surrounding object), and dump
/// the chrome://tracing timeline next to it.
inline void emitRunReport(const memx::obs::RunReport& report,
                          std::ostream& benchJson,
                          const std::string& tracePath) {
  std::cout << '\n' << report.summary();
  benchJson << ", \"report\": ";
  report.writeJson(benchJson);
  std::ofstream trace(tracePath);
  report.writeChromeTrace(trace);
  std::cout << "trace-event timeline written to " << tracePath
            << " (load via chrome://tracing or ui.perfetto.dev)\n";
}

}  // namespace memx::bench
