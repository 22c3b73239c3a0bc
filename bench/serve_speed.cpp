// Serve-layer speed gate: the second identical request must come from
// the result store, not from a re-simulation. Runs an in-process
// serve::Server (no sockets; the same handleLine path the NDJSON loop
// uses), issues the same explore request twice plus a narrower subset
// request, and gates, each fatal:
//
//   * bit-identity: the served CSV equals toCsvString() of the same
//     exploration called directly through Explorer::explore, for both
//     the wide and the subset request,
//   * store counters: exactly one miss (the first request), one exact
//     hit (the repeat), one subset hit (the narrow request re-selected
//     from the wide sweep),
//   * speedup: the cached repeat answers >= 5x faster than the first
//     computation (the real ratio is orders of magnitude).
//
// Writes BENCH_serve_speed.json. The first request does a full sweep,
// far above scheduler noise; the cached path is timed over many repeats
// and reported per request.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "memx/core/explorer.hpp"
#include "memx/kernels/registry.hpp"
#include "memx/report/result_io.hpp"
#include "memx/serve/json.hpp"
#include "memx/serve/server.hpp"
#include "memx/util/numeric_io.hpp"

namespace {

using memx::serve::JsonValue;

double seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

const JsonValue& field(const JsonValue& v, const std::string& key) {
  return v.asObject().at(key);
}

}  // namespace

int main() {
  // A sweep big enough that computation dominates request handling.
  const char* kWideRequest =
      R"({"id":"wide","op":"explore","workload":"compress","options":{)"
      R"("ranges":{"on_chip_bytes":2048,"max_cache_bytes":2048,)"
      R"("max_line_bytes":64,"max_associativity":4,"max_tiling":8}},)"
      R"("include_points":true})";
  const char* kNarrowRequest =
      R"({"id":"narrow","op":"explore","workload":"compress","options":{)"
      R"("ranges":{"on_chip_bytes":512,"max_cache_bytes":512,)"
      R"("max_line_bytes":32,"max_associativity":2,"max_tiling":4}},)"
      R"("include_points":true})";

  memx::serve::Server server;

  const auto t0 = std::chrono::steady_clock::now();
  const JsonValue first = JsonValue::parse(server.handleLine(kWideRequest));
  const auto t1 = std::chrono::steady_clock::now();
  const double coldSec = seconds(t0, t1);
  if (!field(first, "ok").asBool()) {
    std::cerr << "GATE: first request failed: " << first.dump() << '\n';
    return 1;
  }

  // Cached repeats: time several and report the mean.
  constexpr int kRepeats = 20;
  const auto t2 = std::chrono::steady_clock::now();
  JsonValue second;
  for (int i = 0; i < kRepeats; ++i) {
    second = JsonValue::parse(server.handleLine(kWideRequest));
  }
  const auto t3 = std::chrono::steady_clock::now();
  const double warmSec = seconds(t2, t3) / kRepeats;

  const JsonValue narrow =
      JsonValue::parse(server.handleLine(kNarrowRequest));

  // --- bit-identity against direct library calls ------------------
  memx::ExploreOptions wide;
  wide.ranges.onChipBytes = 2048;
  wide.ranges.maxCacheBytes = 2048;
  wide.ranges.maxLineBytes = 64;
  wide.ranges.maxAssociativity = 4;
  wide.ranges.maxTiling = 8;
  memx::ExploreOptions sub;
  sub.ranges.onChipBytes = 512;
  sub.ranges.maxCacheBytes = 512;
  sub.ranges.maxLineBytes = 32;
  sub.ranges.maxAssociativity = 2;
  sub.ranges.maxTiling = 4;
  const memx::Kernel kernel = memx::registeredKernel("compress");
  const std::string wideCsv =
      memx::toCsvString(memx::Explorer(wide).explore(kernel));
  const std::string narrowCsv =
      memx::toCsvString(memx::Explorer(sub).explore(kernel));

  bool identical = field(first, "csv").asString() == wideCsv &&
                   field(second, "csv").asString() == wideCsv &&
                   field(narrow, "csv").asString() == narrowCsv;
  if (!identical) {
    std::cerr << "GATE: served CSV differs from the direct exploration\n";
  }

  // --- store counters ---------------------------------------------
  const auto counters = server.store().counters();
  const bool countersOk =
      counters.misses == 1 && counters.subsetHits == 1 &&
      counters.hits == static_cast<std::uint64_t>(kRepeats) &&
      !field(first, "cached").asBool() &&
      field(second, "cached").asBool() && field(narrow, "subset").asBool();
  if (!countersOk) {
    std::cerr << "GATE: store counters off: misses=" << counters.misses
              << " hits=" << counters.hits
              << " subset_hits=" << counters.subsetHits << '\n';
  }

  // --- speedup ----------------------------------------------------
  const double speedup = warmSec > 0 ? coldSec / warmSec : 1e9;
  const bool fastEnough = speedup >= 5.0;
  if (!fastEnough) {
    std::cerr << "GATE: cached speedup " << speedup
              << "x is below the 5x floor (cold " << coldSec << "s, warm "
              << warmSec << "s)\n";
  }

  const bool ok = identical && countersOk && fastEnough;
  std::cout << "serve_speed: cold " << coldSec << " s, warm " << warmSec
            << " s/request, speedup " << speedup << "x, store misses "
            << counters.misses << " hits " << counters.hits
            << " subset_hits " << counters.subsetHits
            << (ok ? "  [gates ok]\n" : "  [GATES FAILED]\n");

  std::ofstream json("BENCH_serve_speed.json");
  json << "{\"workload\": \"compress\""
       << ", \"cold_seconds\": " << memx::formatDouble17(coldSec)
       << ", \"warm_seconds_per_request\": " << memx::formatDouble17(warmSec)
       << ", \"speedup\": " << memx::formatDouble17(speedup)
       << ", \"store_misses\": " << counters.misses
       << ", \"store_hits\": " << counters.hits
       << ", \"store_subset_hits\": " << counters.subsetHits
       << ", \"bit_identical\": " << (identical ? "true" : "false")
       << ", \"gates_ok\": " << (ok ? "true" : "false") << "}\n";
  return ok ? 0 : 1;
}
