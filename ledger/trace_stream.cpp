// trace-stream: a 20M-reference seeded .din.gz, written before timing,
// streamed through exploreTrace (Auto resolves to the stack-distance
// backend) pass after pass. Roughly half of a pass is decoding and half
// the profile pass; no layout or loop-IR work happens, so this is the
// workload that isolates ingestion and the analytic engine.
//
// Traced rounds attach an obs::Recorder to the streamed pass (memx's
// trace.* counters) and add a drain-only pass that times decoding alone.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>

#include "ledger.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/trace/din_io.hpp"
#include "memx/trace/file_source.hpp"
#include "memx/trace/gzip_stream.hpp"

namespace memx::ledger {
namespace {

/// Seeded synthetic reference stream: a looping working set with random
/// far excursions, ~25% writes and some instruction fetches — enough
/// locality for non-trivial sweep results, enough entropy to give the
/// decompressor real work.
class SynthSource final : public TraceSource {
public:
  SynthSource(std::uint64_t seed, std::uint64_t count)
      : remaining_(count), rng_(seed) {}

  std::optional<MemRef> next() override {
    if (remaining_ == 0) return std::nullopt;
    --remaining_;
    const std::uint64_t roll = rng_();
    const std::uint64_t addr = roll % 16 == 0
                                   ? 0x100000 + rng_() % (1u << 20)
                                   : 0x1000 + (cursor_++ % 4096) * 4;
    AccessType type = AccessType::Read;
    if (roll % 4 == 1) type = AccessType::Write;
    if (roll % 8 == 2) type = AccessType::Instr;
    return MemRef{addr, 4, type};
  }

private:
  std::uint64_t remaining_;
  std::uint64_t cursor_ = 0;
  std::mt19937_64 rng_;
};

/// The generated trace file; removed when the run ends, however it ends.
class TraceFile {
public:
  TraceFile(std::uint64_t seed, std::uint64_t refs)
      : path_("ledger-trace-" + std::to_string(::getpid()) +
              (gzipSupported() ? ".din.gz" : ".din")) {
    std::ofstream raw(path_, std::ios::binary);
    SynthSource synth(seed, refs);
    std::vector<MemRef> chunk;
    const auto writeAll = [&](std::ostream& os) {
      while (fillChunk(synth, chunk, kDefaultTraceChunkRefs) > 0) {
        writeDin(os, Trace(std::move(chunk)));
        chunk = std::vector<MemRef>();
      }
    };
    if (gzipSupported()) {
      GzipOutputStream deflate(raw, 1);
      writeAll(deflate);
      deflate.close();
    } else {
      writeAll(raw);
    }
    raw.close();
    if (!raw) throw std::runtime_error("cannot write " + path_);
  }
  ~TraceFile() { std::remove(path_.c_str()); }
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
  std::string path_;
};

/// Caches 64 B .. 1 KiB, lines 8 .. 32 B, up to 2 ways: 30 points.
ExploreOptions streamOptions() {
  ExploreOptions o;
  o.ranges.minCacheBytes = 64;
  o.ranges.maxCacheBytes = 1024;
  o.ranges.minLineBytes = 8;
  o.ranges.maxLineBytes = 32;
  o.ranges.maxAssociativity = 2;
  return o;
}

}  // namespace

Report runTraceStream(const RunConfig& cfg) {
  Report report;
  const std::uint64_t refs = cfg.smoke ? 200'000 : 20'000'000;
  const std::uint64_t prefixRefs = cfg.smoke ? 50'000 : 500'000;
  const ExploreOptions options = streamOptions();
  report.check(Explorer(options).resolvedBackend() == SweepBackend::StackDist,
               "trace-stream: Auto did not resolve to the stack-distance "
               "backend");

  const TraceFile file(splitmix64(cfg.seed), refs);

  obs::Recorder lib;
  std::vector<double> tracedPassSec;
  std::vector<double> drainSec;
  std::vector<DesignPoint> first;
  const Rounds rounds = runRounds(cfg, [&](bool traced) {
    ExplorationResult r;
    {
      FileTraceSource source(file.path());
      const auto t0 = Clock::now();
      r = exploreTrace("trace-stream", source, options, TraceWindow{},
                       kDefaultTraceChunkRefs, traced ? &lib : nullptr);
      if (traced) tracedPassSec.push_back(secondsSince(t0));
    }
    bool counted = !r.points.empty();
    for (const DesignPoint& p : r.points) {
      counted = counted && p.accesses == refs;
    }
    report.check(counted, "trace-stream: a streamed pass did not count all " +
                              std::to_string(refs) + " references");
    if (first.empty()) first = r.points;
    report.check(identicalPoints(first, r.points),
                 "trace-stream: passes over the same file disagree");
    if (traced) {
      FileTraceSource source(file.path());
      const auto t0 = Clock::now();
      std::uint64_t decoded = 0;
      while (source.next()) ++decoded;
      drainSec.push_back(secondsSince(t0));
      report.check(decoded == refs,
                   "trace-stream: drain decoded " + std::to_string(decoded) +
                       " of " + std::to_string(refs) + " references");
    }
  });

  if (cfg.traced) {
    // Decoding and profiling interleave chunk by chunk inside a pass, so
    // the profile's share is the pass minus a decode-only pass.
    const double decode = 100.0 * median(drainSec) / median(tracedPassSec);
    report.set("trace.decode_pct", decode);
    report.set("stackdist.evaluate_pct", 100.0 - decode);
    report.set("bench.attributed_pct", 100.0);
    const double passes = static_cast<double>(tracedPassSec.size());
    reportLibraryCounters(report, lib.report().counters, passes);
    report.check(lib.counterValue("trace.refs_decoded") ==
                     refs * tracedPassSec.size(),
                 "trace-stream: recorder counted " +
                     std::to_string(lib.counterValue("trace.refs_decoded")) +
                     " decoded references");
    reportTraceOverhead(report,
                        Rounds{rounds.plainSec, tracedPassSec, 0.0});
  } else {
    const double setup = setupSeconds(
        [&] { const FileTraceSource source(file.path()); }, cfg.smoke);
    reportEndToEnd(report, setup, rounds.plainSec, "streamed pass",
                   static_cast<double>(refs * rounds.plainSec.size()),
                   "references", rounds.wallSec);
  }

  // Streamed == materialized on a prefix small enough to hold.
  Trace prefix;
  {
    FileTraceSource source(file.path());
    WindowedSource head(source, TraceWindow{0, 0, prefixRefs});
    prefix = drain(head);
  }
  FileTraceSource source(file.path());
  const ExplorationResult streamed = exploreTrace(
      "prefix", source, options, TraceWindow{0, 0, prefixRefs});
  report.check(identicalPoints(streamed.points,
                               exploreTrace("prefix", prefix, options).points),
               "trace-stream: streamed prefix differs from the materialized "
               "trace");
  report.note("digest " + hex64(digestPoints(first)) + " over " +
              std::to_string(first.size()) + " points of " +
              std::to_string(refs) + " references");
  return report;
}

}  // namespace memx::ledger
