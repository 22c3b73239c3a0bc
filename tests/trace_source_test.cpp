// Streaming trace ingestion: din decoding, gzip streams, file sources,
// windowing, chunked replay, and the streamed-vs-materialized
// differential that pins the out-of-core path to the in-memory one.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "memx/core/config_bank.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/trace/chunk_stream.hpp"
#include "memx/trace/din_io.hpp"
#include "memx/trace/file_source.hpp"
#include "memx/trace/generators.hpp"
#include "memx/trace/gzip_stream.hpp"
#include "memx/trace/trace_source.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

Trace mixedTrace(std::size_t n, unsigned seed) {
  // Reads, writes and ifetches with occasional line straddles — the
  // shapes din files carry (sizes are stamped to 4 on parse, so keep
  // size 4 and let unaligned addresses produce the straddles).
  std::mt19937_64 rng(seed);
  Trace t;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t addr = rng() % 4096 + (rng() % 8 == 0 ? 3 : 0);
    const std::uint32_t pick = rng() % 4;
    const AccessType type = pick == 0   ? AccessType::Write
                            : pick == 1 ? AccessType::Instr
                                        : AccessType::Read;
    t.push(MemRef{addr, 4, type});
  }
  return t;
}

void expectSameRefs(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].addr, b[i].addr) << "ref " << i;
    ASSERT_EQ(a[i].size, b[i].size) << "ref " << i;
    ASSERT_EQ(a[i].type, b[i].type) << "ref " << i;
  }
}

void expectSameStats(const CacheStats& a, const CacheStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.reads, b.reads) << what;
  EXPECT_EQ(a.writes, b.writes) << what;
  EXPECT_EQ(a.readHits, b.readHits) << what;
  EXPECT_EQ(a.readMisses, b.readMisses) << what;
  EXPECT_EQ(a.writeHits, b.writeHits) << what;
  EXPECT_EQ(a.writeMisses, b.writeMisses) << what;
  EXPECT_EQ(a.lineFills, b.lineFills) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.memWrites, b.memWrites) << what;
}

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --- DinStreamSource ----------------------------------------------------

TEST(DinStreamSource, DeliversRefsIncrementally) {
  std::istringstream is("# hdr\n0 10\n\n1 20\n2 30\n");
  DinStreamSource source(is);
  EXPECT_EQ(source.ingest().refsDecoded, 0u);
  auto r0 = source.next();
  ASSERT_TRUE(r0);
  EXPECT_EQ(r0->addr, 0x10u);
  EXPECT_EQ(r0->type, AccessType::Read);
  EXPECT_EQ(source.ingest().refsDecoded, 1u);
  auto r1 = source.next();
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->addr, 0x20u);
  EXPECT_EQ(r1->type, AccessType::Write);
  auto r2 = source.next();
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->type, AccessType::Instr);
  EXPECT_FALSE(source.next());
  EXPECT_FALSE(source.next());  // exhausted stays exhausted
  EXPECT_EQ(source.ingest().refsDecoded, 3u);
  EXPECT_EQ(source.lineNo(), 5u);
}

TEST(DinStreamSource, MatchesReadDin) {
  const Trace original = mixedTrace(500, 7);
  const std::string text = toDinString(original);
  std::istringstream a(text);
  std::istringstream b(text);
  DinStreamSource source(a);
  const Trace streamed = drain(source);
  expectSameRefs(streamed, readDin(b));
}

TEST(FillChunk, ShortCountSignalsExhaustion) {
  VectorTraceSource source(stridedTrace(0, 10, 4));
  std::vector<MemRef> buf;
  EXPECT_EQ(fillChunk(source, buf, 4), 4u);
  EXPECT_EQ(buf[0].addr, 0u);
  EXPECT_EQ(fillChunk(source, buf, 4), 4u);
  EXPECT_EQ(buf[0].addr, 16u);  // buffer is reused, not appended
  EXPECT_EQ(fillChunk(source, buf, 4), 2u);
  EXPECT_EQ(fillChunk(source, buf, 4), 0u);
}

// --- WindowedSource -----------------------------------------------------

TEST(WindowedSource, AppliesSkipWarmupAndLimit) {
  VectorTraceSource inner(stridedTrace(0, 20, 4));
  WindowedSource window(inner, TraceWindow{5, 2, 3});
  // Delivers warmup + limit = 5 refs, starting after the 5 skipped.
  for (std::uint64_t want = 5; want < 10; ++want) {
    auto ref = window.next();
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref->addr, want * 4);
  }
  EXPECT_FALSE(window.next());
  EXPECT_EQ(window.delivered(), 5u);
}

TEST(WindowedSource, LimitZeroIsUnbounded) {
  VectorTraceSource inner(stridedTrace(0, 10, 4));
  WindowedSource window(inner, TraceWindow{2, 0, 0});
  EXPECT_EQ(drain(window).size(), 8u);
}

TEST(WindowedSource, SkipPastEndIsEmpty) {
  VectorTraceSource inner(stridedTrace(0, 5, 4));
  WindowedSource window(inner, TraceWindow{100, 0, 0});
  EXPECT_FALSE(window.next());
  EXPECT_EQ(window.delivered(), 0u);
}

TEST(WindowedSource, ForwardsIngestStats) {
  std::istringstream is("0 10\n0 20\n0 30\n");
  DinStreamSource din(is);
  WindowedSource window(din, TraceWindow{1, 0, 1});
  (void)drain(window);
  // Skip consumed one ref, limit delivered one: both decoded.
  EXPECT_EQ(window.ingest().refsDecoded, 2u);
}

TEST(WindowedSource, WindowsCompose) {
  VectorTraceSource inner(stridedTrace(0, 100, 4));
  WindowedSource outer(inner, TraceWindow{10, 0, 50});
  WindowedSource nested(outer, TraceWindow{5, 0, 10});
  const Trace got = drain(nested);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got[0].addr, 15u * 4);
}

// --- Gzip streams -------------------------------------------------------

TEST(GzipStream, RoundTripsThroughMemory) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  const Trace original = mixedTrace(2000, 11);
  std::stringstream compressed;
  {
    GzipOutputStream gz(compressed, 6);
    writeDin(gz, original);
    gz.close();
  }
  // The gzip layer actually compressed (din text is highly redundant).
  EXPECT_LT(compressed.str().size(), toDinString(original).size() / 2);
  GzipInputStream inflate(compressed);
  expectSameRefs(readDin(inflate), original);
}

TEST(GzipStream, SmallBuffersStillRoundTrip) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  const Trace original = mixedTrace(300, 13);
  std::stringstream compressed;
  {
    GzipOutputStream gz(compressed, -1, 16);  // tiny deflate buffers
    writeDin(gz, original);
    gz.close();
  }
  GzipInputStream inflate(compressed, 16);  // tiny inflate buffers
  expectSameRefs(readDin(inflate), original);
}

TEST(GzipStream, ConcatenatedMembersInflateBackToBack) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  // `cat a.gz b.gz` is a valid gzip file; gzip -d inflates both.
  std::stringstream compressed;
  {
    GzipOutputStream gz(compressed);
    gz << "0 10\n";
    gz.close();
  }
  {
    GzipOutputStream gz(compressed);
    gz << "1 20\n";
    gz.close();
  }
  GzipInputStream inflate(compressed);
  const Trace t = readDin(inflate);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x10u);
  EXPECT_EQ(t[1].addr, 0x20u);
}

TEST(GzipStream, TruncatedInputThrows) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  // Through readDin's block reads: istream machinery must rethrow the
  // streambuf's ContractViolation, not swallow it into a short read.
  std::stringstream compressed;
  {
    GzipOutputStream gz(compressed);
    gz << "0 10\n0 20\n0 30\n";
    gz.close();
  }
  const std::string whole = compressed.str();
  std::istringstream cut(whole.substr(0, whole.size() / 2));
  GzipInputStream inflate(cut);
  EXPECT_THROW((void)readDin(inflate), ContractViolation);
}

TEST(GzipStream, GarbageInputThrows) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  std::istringstream garbage("this is not a gzip stream at all");
  GzipInputStream inflate(garbage);
  EXPECT_THROW((void)readDin(inflate), ContractViolation);
}

// --- FileTraceSource ----------------------------------------------------

TEST(FileTraceSource, StreamsPlainDinFiles) {
  const Trace original = mixedTrace(800, 17);
  const std::string path = tempPath("plain_trace.din");
  {
    std::ofstream out(path);
    writeDin(out, original);
  }
  FileTraceSource source(path);
  expectSameRefs(drain(source), original);
  const IngestStats ingest = source.ingest();
  EXPECT_EQ(ingest.refsDecoded, original.size());
  EXPECT_EQ(ingest.bytesRead, toDinString(original).size());
  std::remove(path.c_str());
}

TEST(FileTraceSource, StreamsGzipCompressedFiles) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  const Trace original = mixedTrace(800, 19);
  const std::string path = tempPath("gz_trace.din.gz");
  {
    std::ofstream raw(path, std::ios::binary);
    GzipOutputStream gz(raw);
    writeDin(gz, original);
    gz.close();
  }
  FileTraceSource source(path);
  expectSameRefs(drain(source), original);
  const IngestStats ingest = source.ingest();
  EXPECT_EQ(ingest.refsDecoded, original.size());
  // bytesRead counts the compressed file, which is far smaller than
  // the decompressed text.
  EXPECT_GT(ingest.bytesRead, 0u);
  EXPECT_LT(ingest.bytesRead, toDinString(original).size() / 2);
  std::remove(path.c_str());
}

TEST(FileTraceSource, MissingFileThrows) {
  EXPECT_THROW(FileTraceSource("/nonexistent/trace.din"),
               ContractViolation);
}

TEST(FileTraceSource, DirectoryPathThrows) {
  // std::ifstream opens a directory; its reads then fail (EISDIR). That
  // failure must not pass for end of file, which made a directory
  // stream as an empty trace.
  for (const std::string name : {"trace_dir", "trace_dir.din.gz"}) {
    const std::string dir = tempPath(name);
    std::filesystem::create_directories(dir);
    try {
      FileTraceSource source(dir);
      (void)drain(source);
      ADD_FAILURE() << dir << " streamed as a trace";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
          << e.what();
    }
    std::filesystem::remove(dir);
  }
}

TEST(FileTraceSource, TruncatedGzipFileThrows) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  const Trace original = mixedTrace(500, 21);
  const std::string path = tempPath("cut_trace.din.gz");
  std::string whole;
  {
    std::ostringstream buf;
    GzipOutputStream gz(buf);
    writeDin(gz, original);
    gz.close();
    whole = buf.str();
  }
  {
    std::ofstream out(path, std::ios::binary);
    out.write(whole.data(),
              static_cast<std::streamsize>(whole.size() / 2));
  }
  FileTraceSource source(path);
  EXPECT_THROW((void)drain(source), ContractViolation);
  std::remove(path.c_str());
}

TEST(FileTraceSource, DetectsGzipByExtension) {
  EXPECT_TRUE(isGzipPath("trace.din.gz"));
  EXPECT_TRUE(isGzipPath("/a/b/c.gz"));
  EXPECT_FALSE(isGzipPath("trace.din"));
  EXPECT_FALSE(isGzipPath(".gz"));  // no stem
}

// --- Chunked replay -----------------------------------------------------

std::vector<CacheConfig> sweepBank() {
  std::vector<CacheConfig> configs;
  for (const std::uint32_t size : {64u, 256u}) {
    for (const std::uint32_t line : {8u, 16u}) {
      for (const std::uint32_t assoc : {1u, 2u}) {
        CacheConfig c;
        c.sizeBytes = size;
        c.lineBytes = line;
        c.associativity = assoc;
        configs.push_back(c);
      }
    }
  }
  return configs;
}

TEST(ChunkedReplay, MultiCacheSimMatchesWholeTraceRun) {
  // FIFO and Random members join the LRU sweep, so each line size's
  // simulators (one streamed lane each) mix every replacement state.
  const Trace trace = mixedTrace(3000, 23);
  std::vector<CacheConfig> configs = sweepBank();
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::FIFO, ReplacementPolicy::Random}) {
    for (CacheConfig c : sweepBank()) {
      c.replacement = policy;
      configs.push_back(c);
    }
  }
  ConfigBank whole(SweepBackend::MultiSim, configs);
  whole.run(trace);
  for (const std::size_t chunkRefs : {std::size_t{1}, std::size_t{7},
                                      std::size_t{256}}) {
    ConfigBank chunked(SweepBackend::MultiSim, configs);
    VectorTraceSource source(trace);
    chunked.run(source, chunkRefs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expectSameStats(chunked.stats(i), whole.stats(i),
                      "chunk=" + std::to_string(chunkRefs) + " member " +
                          std::to_string(i));
    }
  }
}

TEST(ChunkedReplay, StackDistSimMatchesWholeTraceRun) {
  const Trace trace = mixedTrace(3000, 27);
  const std::vector<CacheConfig> configs = sweepBank();
  ConfigBank whole(SweepBackend::StackDist, configs);
  whole.run(trace);
  for (const std::size_t chunkRefs : {std::size_t{1}, std::size_t{13},
                                      std::size_t{512}}) {
    ConfigBank chunked(SweepBackend::StackDist, configs);
    VectorTraceSource source(trace);
    chunked.run(source, chunkRefs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expectSameStats(chunked.stats(i), whole.stats(i),
                      "chunk=" + std::to_string(chunkRefs) + " member " +
                          std::to_string(i));
    }
  }
}

TEST(ChunkedReplay, StackDistSimAccumulatesAcrossRunCalls) {
  // Streaming runs accumulate: two half-trace calls equal one whole
  // pass (the warmup-snapshot mechanism depends on this).
  const Trace trace = mixedTrace(2000, 29);
  Trace firstHalf;
  Trace secondHalf;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    (i < trace.size() / 2 ? firstHalf : secondHalf).push(trace[i]);
  }
  const std::vector<CacheConfig> configs = sweepBank();
  ConfigBank whole(SweepBackend::StackDist, configs);
  whole.run(trace);
  ConfigBank split(SweepBackend::StackDist, configs);
  VectorTraceSource a(firstHalf);
  VectorTraceSource b(secondHalf);
  split.run(a, kDefaultTraceChunkRefs);
  split.run(b, kDefaultTraceChunkRefs);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expectSameStats(split.stats(i), whole.stats(i),
                    "member " + std::to_string(i));
  }
}

TEST(ChunkedReplay, StackDistSimMixesModesAsOneStream) {
  // Both run() overloads feed the same incremental profiles, so a
  // whole-trace run followed by a streamed run is one stream.
  const Trace trace = mixedTrace(300, 31);
  Trace head;
  Trace tail;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    (i < 100 ? head : tail).push(trace[i]);
  }
  const std::vector<CacheConfig> configs = sweepBank();
  ConfigBank whole(SweepBackend::StackDist, configs);
  whole.run(trace);
  ConfigBank mixed(SweepBackend::StackDist, configs);
  mixed.run(head);
  VectorTraceSource source(tail);
  mixed.run(source, 13);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expectSameStats(mixed.stats(i), whole.stats(i),
                    "member " + std::to_string(i));
  }
}

TEST(AllAssocProfile, FeedSplitsAreInvariant) {
  const Trace trace = mixedTrace(4000, 37);
  const AllAssocProfile whole(trace, 16, 64, 4);
  AllAssocProfile fed(16, 64, 4);
  // Feed in ragged chunks.
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < trace.size()) {
    const std::size_t n = std::min(step, trace.size() - pos);
    fed.feed(trace.refs().data() + pos, n);
    pos += n;
    step = step * 2 + 1;
  }
  for (const std::uint32_t sets : {1u, 8u, 64u}) {
    for (const std::uint32_t assoc : {1u, 2u, 4u}) {
      expectSameStats(fed.stats(sets, assoc, WritePolicy::WriteBack),
                      whole.stats(sets, assoc, WritePolicy::WriteBack),
                      "S" + std::to_string(sets) + "A" +
                          std::to_string(assoc));
    }
  }
}

TEST(AllAssocProfile, PackedToSplitMigrationIsExact) {
  // A line index beyond 2^56 - 2 forces the packed pass to hand over
  // mid-stream. The migrated profile must stay exact — pin it against
  // the cache simulator on a trace that goes small -> huge -> small.
  Trace trace;
  Trace prefix = mixedTrace(600, 41);
  for (const MemRef& r : prefix) trace.push(r);
  const std::uint64_t huge = (std::uint64_t{1} << 60);
  for (std::size_t i = 0; i < 50; ++i) {
    trace.push(MemRef{huge + i * 8, 4,
                      i % 3 == 0 ? AccessType::Write : AccessType::Read});
  }
  Trace suffix = mixedTrace(600, 43);
  for (const MemRef& r : suffix) trace.push(r);

  const AllAssocProfile profile(trace, 8, 16, 4);
  for (const std::uint32_t sets : {1u, 4u, 16u}) {
    for (const std::uint32_t assoc : {1u, 2u, 4u}) {
      CacheConfig c;
      c.lineBytes = 8;
      c.sizeBytes = sets * assoc * 8;
      c.associativity = assoc;
      const CacheStats sim = simulateTrace(c, trace);
      expectSameStats(profile.stats(sets, assoc, WritePolicy::WriteBack),
                      sim,
                      "S" + std::to_string(sets) + "A" +
                          std::to_string(assoc));
    }
  }
}

// --- Streamed vs materialized explorer ----------------------------------

/// The sweep's engine follows from `replacement`: LRU runs on the
/// stack-distance engine, Random simulates.
ExploreOptions smallSweep(
    ReplacementPolicy replacement = ReplacementPolicy::LRU) {
  ExploreOptions options;
  options.ranges.minCacheBytes = 32;
  options.ranges.maxCacheBytes = 256;
  options.ranges.maxAssociativity = 2;
  options.replacement = replacement;
  return options;
}

void expectSamePoints(const ExplorationResult& a,
                      const ExplorationResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const DesignPoint& pa = a.points[i];
    const DesignPoint& pb = b.points[i];
    EXPECT_EQ(pa.key, pb.key);
    EXPECT_EQ(pa.accesses, pb.accesses);
    // Bit-identical, not approximately equal: the streamed path must
    // fold the exact same integers through the exact same doubles.
    EXPECT_EQ(pa.missRate, pb.missRate) << pa.key.label();
    EXPECT_EQ(pa.cycles, pb.cycles) << pa.key.label();
    EXPECT_EQ(pa.energyNj, pb.energyNj) << pa.key.label();
  }
}

TEST(StreamedExplore, TrivialWindowMatchesMaterializedBothBackends) {
  const Trace trace = mixedTrace(4000, 47);
  for (const ReplacementPolicy replacement :
       {ReplacementPolicy::LRU, ReplacementPolicy::Random}) {
    const ExploreOptions options = smallSweep(replacement);
    const ExplorationResult materialized =
        exploreTrace("w", trace, options);
    VectorTraceSource source(trace);
    const ExplorationResult streamed =
        exploreTrace("w", source, options, TraceWindow{}, 64);
    expectSamePoints(streamed, materialized);
  }
}

TEST(StreamedExplore, SkipAndLimitMatchMaterializedSubrange) {
  const Trace trace = mixedTrace(3000, 53);
  const TraceWindow window{500, 0, 1000};
  Trace sub;
  for (std::size_t i = 500; i < 1500; ++i) sub.push(trace[i]);
  for (const ReplacementPolicy replacement :
       {ReplacementPolicy::LRU, ReplacementPolicy::Random}) {
    const ExploreOptions options = smallSweep(replacement);
    const ExplorationResult materialized = exploreTrace("w", sub, options);
    VectorTraceSource source(trace);
    const ExplorationResult streamed =
        exploreTrace("w", source, options, window, 128);
    expectSamePoints(streamed, materialized);
  }
}

TEST(StreamedExplore, WarmupAgreesAcrossBackends) {
  // Warmup exclusion uses snapshot subtraction on both engines; the
  // analytic sweep and per-config simulation must agree exactly on the
  // counted region (LRU/write-allocate domain).
  const Trace trace = mixedTrace(3000, 59);
  const TraceWindow window{200, 500, 1500};
  const ExploreOptions options = smallSweep();
  VectorTraceSource a(trace);
  const ExplorationResult viaStackDist =
      exploreTrace("w", a, options, window, 64);
  ExplorationResult viaMultiSim;
  for (const DesignPoint& p : viaStackDist.points) {
    VectorTraceSource b(trace);
    viaMultiSim.points.push_back(
        evaluateTracePoint(b, p.cacheConfig(), options, window, 64));
  }
  expectSamePoints(viaStackDist, viaMultiSim);
}

TEST(StreamedExplore, EvaluatePointMatchesMaterialized) {
  const Trace trace = mixedTrace(2000, 61);
  CacheConfig cache;
  cache.sizeBytes = 128;
  cache.lineBytes = 8;
  cache.associativity = 2;
  ExploreOptions options;
  const DesignPoint materialized =
      evaluateTracePoint(trace, cache, options);
  VectorTraceSource source(trace);
  const DesignPoint streamed =
      evaluateTracePoint(source, cache, options, TraceWindow{}, 32);
  EXPECT_EQ(streamed.key, materialized.key);
  EXPECT_EQ(streamed.accesses, materialized.accesses);
  EXPECT_EQ(streamed.missRate, materialized.missRate);
  EXPECT_EQ(streamed.cycles, materialized.cycles);
  EXPECT_EQ(streamed.energyNj, materialized.energyNj);
}

TEST(StreamedExplore, FileSourceMatchesInMemoryEndToEnd) {
  // The full production chain: write a din file, stream it through the
  // explorer, compare against the in-memory result.
  const Trace trace = mixedTrace(1500, 67);
  const std::string path = tempPath("explore_trace.din");
  {
    std::ofstream out(path);
    writeDin(out, trace);
  }
  // din drops sizes; compare against the re-parsed trace.
  const Trace parsed = fromDinString(toDinString(trace));
  const ExploreOptions options = smallSweep();
  const ExplorationResult materialized =
      exploreTrace("w", parsed, options);
  FileTraceSource source(path);
  const ExplorationResult streamed =
      exploreTrace("w", source, options, TraceWindow{}, 256);
  expectSamePoints(streamed, materialized);
  std::remove(path.c_str());
}

TEST(StreamedExplore, RecordsIngestCountersAndSpans) {
  const Trace trace = mixedTrace(1000, 71);
  const std::string path = tempPath("obs_trace.din");
  {
    std::ofstream out(path);
    writeDin(out, trace);
  }
  obs::Recorder recorder;
  FileTraceSource source(path);
  (void)evaluateTracePoint(source, CacheConfig{}, ExploreOptions{},
                           TraceWindow{0, 100, 0}, 128, &recorder);
  EXPECT_EQ(recorder.counterValue("trace.refs_decoded"), trace.size());
  EXPECT_EQ(recorder.counterValue("trace.bytes_read"),
            toDinString(trace).size());
  EXPECT_GE(recorder.spanCount(), 3u);  // ingest + warmup + replay
  // The point's one-member simulation bank reports its workload,
  // warmup references included.
  EXPECT_EQ(recorder.counterValue("sweep.groups_multisim"), 1u);
  EXPECT_EQ(recorder.counterValue("sweep.points"), 1u);
  EXPECT_EQ(recorder.counterValue("sim.accesses"), trace.size());
  std::remove(path.c_str());
}

// --- The streamed chunk loop --------------------------------------------

/// Write `text` to `path`, gzip-compressed when the path ends in .gz.
void writeTextFile(const std::string& path, const std::string& text) {
  std::ofstream raw(path, std::ios::binary);
  if (isGzipPath(path)) {
    GzipOutputStream gz(raw);
    gz << text;
    gz.close();
  } else {
    raw << text;
  }
}

TEST(StreamChunks, PlanNeverExceedsHardwareThreads) {
  for (unsigned hw = 0; hw <= 16; ++hw) {
    for (std::size_t lanes = 1; lanes <= 8; ++lanes) {
      const StreamPlan plan = planStream(lanes, hw);
      const std::size_t threads =
          plan.laneThreads + (plan.decoderThread ? 1 : 0);
      EXPECT_LE(threads, std::max(hw, 1u)) << hw << " " << lanes;
      EXPECT_GE(plan.laneThreads, 1u);
      EXPECT_LE(plan.laneThreads, lanes);
    }
  }
  // Three profiles on four hardware threads: the decoder, the caller
  // and two helpers.
  EXPECT_TRUE(planStream(3, 4).decoderThread);
  EXPECT_EQ(planStream(3, 4).laneThreads, 3u);
  // One hardware thread: everything on the caller.
  EXPECT_FALSE(planStream(3, 1).decoderThread);
  EXPECT_EQ(planStream(3, 1).laneThreads, 1u);
}

/// Every shape a streamed pass can take, whatever this machine has:
/// inline or threaded decoding, lanes on the caller or spread.
const StreamPlan kPlans[] = {{false, 1}, {true, 1}, {false, 3}, {true, 3}};

TEST(StreamChunks, EveryLaneSeesEveryChunkInOrderOnOneThread) {
  const Trace trace = mixedTrace(1000, 73);
  struct Seen {
    Trace refs;
    std::set<std::thread::id> threads;
    std::size_t largest = 0;
  };
  for (const StreamPlan plan : kPlans) {
    for (const std::size_t chunkRefs : {std::size_t{1}, std::size_t{7},
                                        std::size_t{64}}) {
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{3},
                                      std::size_t{5}}) {
        VectorTraceSource source(trace);
        std::vector<Seen> seen(lanes);
        const std::size_t fed = streamChunks(
            source, chunkRefs, lanes,
            [&](std::size_t lane, const MemRef* refs, std::size_t count) {
              Seen& mine = seen[lane];
              mine.threads.insert(std::this_thread::get_id());
              mine.largest = std::max(mine.largest, count);
              for (std::size_t i = 0; i < count; ++i) {
                mine.refs.push(refs[i]);
              }
            },
            plan);
        EXPECT_EQ(fed, trace.size());
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          SCOPED_TRACE("decoder=" + std::to_string(plan.decoderThread) +
                       " laneThreads=" + std::to_string(plan.laneThreads) +
                       " chunk=" + std::to_string(chunkRefs) +
                       " lane=" + std::to_string(lane));
          expectSameRefs(seen[lane].refs, trace);
          EXPECT_EQ(seen[lane].threads.size(), 1u);
          EXPECT_LE(seen[lane].largest, chunkRefs);
        }
      }
    }
  }
}

/// Delivers `good` references, then throws.
class FailingSource final : public TraceSource {
public:
  explicit FailingSource(std::size_t good) : good_(good) {}
  std::optional<MemRef> next() override {
    if (pulled_ == good_) {
      throw ContractViolation("source failed after " +
                              std::to_string(good_) + " references");
    }
    return MemRef{4 * pulled_++, 4, AccessType::Read};
  }

private:
  std::size_t good_;
  std::size_t pulled_ = 0;
};

TEST(StreamChunks, ErrorsRethrowOnTheCallerWithTheirMessage) {
  for (const StreamPlan plan : kPlans) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
      FailingSource source(300);
      try {
        (void)streamChunks(
            source, 64, lanes, [](std::size_t, const MemRef*, std::size_t) {},
            plan);
        ADD_FAILURE() << "source error swallowed";
      } catch (const ContractViolation& e) {
        EXPECT_STREQ(e.what(), "source failed after 300 references");
      }
      VectorTraceSource vector(mixedTrace(500, 79));
      try {
        (void)streamChunks(
            vector, 64, lanes,
            [lanes](std::size_t lane, const MemRef*, std::size_t) {
              if (lane == lanes - 1) throw std::runtime_error("lane failed");
            },
            plan);
        ADD_FAILURE() << "lane error swallowed";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "lane failed");
      }
    }
  }
}

TEST(StreamedExplore, MalformedLineInALaterChunkThrowsWithItsLine) {
  const std::string text = toDinString(mixedTrace(3000, 83)) + "0 nothex\n" +
                           toDinString(mixedTrace(500, 89));
  for (const std::string name : {"late_bad.din", "late_bad.din.gz"}) {
    if (isGzipPath(name) && !gzipSupported()) continue;
    const std::string path = tempPath(name);
    writeTextFile(path, text);
    for (const ReplacementPolicy replacement :
         {ReplacementPolicy::LRU, ReplacementPolicy::Random}) {
      FileTraceSource source(path);
      try {
        (void)exploreTrace("w", source, smallSweep(replacement),
                           TraceWindow{}, 64);
        ADD_FAILURE() << name << ": malformed line accepted";
      } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("din line 3001"),
                  std::string::npos)
            << e.what();
      }
    }
    std::remove(path.c_str());
  }
}

TEST(StreamedExplore, TruncatedGzipThrowsMidStream) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  std::ostringstream whole;
  {
    GzipOutputStream gz(whole);
    writeDin(gz, mixedTrace(20000, 97));
    gz.close();
  }
  const std::string path = tempPath("cut_stream.din.gz");
  {
    std::ofstream out(path, std::ios::binary);
    out << whole.str().substr(0, whole.str().size() * 3 / 5);
  }
  for (const ReplacementPolicy replacement :
       {ReplacementPolicy::LRU, ReplacementPolicy::Random}) {
    FileTraceSource source(path);
    try {
      (void)exploreTrace("w", source, smallSweep(replacement),
                         TraceWindow{}, 64);
      ADD_FAILURE() << "truncated stream accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("truncated compressed input"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(StreamedExplore, WindowDecodesExactlySkipWarmupLimit) {
  // Read-ahead must stop at the window's boundaries: the decoder never
  // parses a reference the window does not deliver or skip.
  const std::string path = tempPath("window_count.din");
  writeTextFile(path, toDinString(mixedTrace(5000, 101)));
  for (const TraceWindow window :
       {TraceWindow{100, 250, 700}, TraceWindow{0, 64, 64},
        TraceWindow{64, 0, 128}, TraceWindow{1, 0, 4000}}) {
    const std::uint64_t want = window.skip + window.warmup + window.limit;
    for (const std::size_t chunkRefs : {std::size_t{1}, std::size_t{7},
                                        std::size_t{64},
                                        std::size_t{1} << 16}) {
      for (const ReplacementPolicy replacement :
           {ReplacementPolicy::LRU, ReplacementPolicy::Random}) {
        obs::Recorder recorder;
        FileTraceSource source(path);
        (void)exploreTrace("w", source, smallSweep(replacement), window,
                           chunkRefs, &recorder);
        EXPECT_EQ(recorder.counterValue("trace.refs_decoded"), want)
            << "chunk=" << chunkRefs << " window " << window.skip << "/"
            << window.warmup << "/" << window.limit;
        EXPECT_EQ(source.ingest().refsDecoded, want);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(StreamedExplore, ChunkSizesMatchMaterializedBothEngines) {
  const Trace trace = mixedTrace(4000, 103);
  Trace sub;
  for (std::size_t i = 300; i < 3300; ++i) sub.push(trace[i]);
  for (const ReplacementPolicy replacement :
       {ReplacementPolicy::LRU, ReplacementPolicy::Random}) {
    const ExploreOptions options = smallSweep(replacement);
    const ExplorationResult whole = exploreTrace("w", trace, options);
    const ExplorationResult window = exploreTrace("w", sub, options);
    for (const std::size_t chunkRefs : {std::size_t{1}, std::size_t{7},
                                        std::size_t{1} << 16}) {
      SCOPED_TRACE("chunk=" + std::to_string(chunkRefs));
      VectorTraceSource all(trace);
      expectSamePoints(
          exploreTrace("w", all, options, TraceWindow{}, chunkRefs), whole);
      VectorTraceSource part(trace);
      expectSamePoints(exploreTrace("w", part, options,
                                    TraceWindow{300, 0, 3000}, chunkRefs),
                       window);
    }
  }
}

}  // namespace
}  // namespace memx
