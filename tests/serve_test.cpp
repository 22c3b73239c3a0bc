// The serve subsystem: JSON strictness, protocol validation, the
// single-flight result store, and the full server lifecycle — with the
// headline guarantee that a served response is bit-identical to the
// same exploration called directly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <vector>

#include "memx/core/selection.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/kernels/registry.hpp"
#include "memx/report/result_io.hpp"
#include "memx/search/front_io.hpp"
#include "memx/serve/job_queue.hpp"
#include "memx/serve/json.hpp"
#include "memx/serve/protocol.hpp"
#include "memx/serve/result_store.hpp"
#include "memx/serve/server.hpp"
#include "memx/trace/din_io.hpp"
#include "memx/trace/file_source.hpp"

namespace memx::serve {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesScalarsAndContainers) {
  EXPECT_TRUE(JsonValue::parse("null").isNull());
  EXPECT_TRUE(JsonValue::parse("true").asBool());
  EXPECT_FALSE(JsonValue::parse("false").asBool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("-12.5e2").asNumber(), -1250.0);
  EXPECT_EQ(JsonValue::parse("\"a b\"").asString(), "a b");
  EXPECT_EQ(JsonValue::parse("[1,2,3]").asArray().size(), 3u);
  const JsonValue o = JsonValue::parse(R"({"a":1,"b":[true,null]})");
  EXPECT_EQ(o.asObject().size(), 2u);
  EXPECT_DOUBLE_EQ(o.asObject().at("a").asNumber(), 1.0);
}

TEST(Json, EscapesRoundTrip) {
  const JsonValue v =
      JsonValue::parse(R"("line\n tab\t quote\" back\\ u\u0041")");
  EXPECT_EQ(v.asString(), "line\n tab\t quote\" back\\ uA");
  // Surrogate pair: U+1F600 (4-byte UTF-8).
  const JsonValue emoji = JsonValue::parse(R"("\ud83d\ude00")");
  EXPECT_EQ(emoji.asString(), "\xF0\x9F\x98\x80");
  // dump escapes control characters and round-trips.
  const JsonValue s(std::string("a\nb\x01" "c"));
  EXPECT_EQ(s.dump(), "\"a\\nb\\u0001c\"");
  EXPECT_EQ(JsonValue::parse(s.dump()).asString(), std::string("a\nb\x01") + "c");
}

TEST(Json, RejectsMalformedInput) {
  const char* bad[] = {
      "",         "{",          "[1,]",        "{\"a\":}",
      "tru",      "01",         "1.",          "1e",
      "+1",       "\"\\x\"",    "\"unterminated", "{\"a\":1,}",
      "[1] tail", "\"\\ud800\"" /* unpaired surrogate */,
      "{\"a\":1,\"a\":2}" /* duplicate key */,
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)JsonValue::parse(text), JsonError) << text;
  }
}

TEST(Json, BoundsNestingDepth) {
  const std::string deep(1000, '[');
  EXPECT_THROW((void)JsonValue::parse(deep), JsonError);
}

TEST(Json, DumpsIntegersWithoutExponent) {
  EXPECT_EQ(JsonValue(17).dump(), "17");
  EXPECT_EQ(JsonValue(std::uint64_t{1} << 40).dump(), "1099511627776");
  EXPECT_EQ(JsonValue(0.25).dump(), "0.25");
  EXPECT_EQ(JsonValue::parse(JsonValue(0.1).dump()).asNumber(), 0.1);
}

// ------------------------------------------------------------ protocol

TEST(Protocol, RejectsUnknownFieldsWithDiagnostics) {
  const auto parse = [](const std::string& text) {
    return parseRequest(JsonValue::parse(text));
  };
  EXPECT_THROW((void)parse(R"({"op":"ping","bogus":1})"), ServeError);
  EXPECT_THROW((void)parse(R"({"op":"explore"})"), ServeError);
  EXPECT_THROW(
      (void)parse(
          R"({"op":"explore","workload":"matadd","options":{"emnj":1}})"),
      ServeError);
  EXPECT_THROW(
      (void)parse(
          R"({"op":"explore","workload":"x","options":{"ranges":{"max_cache":64}}})"),
      ServeError);
  // The sweep engine is not a request option: it follows from the
  // replacement policy, so a request naming one is rejected by name.
  for (const std::string field : {"bogus", "backend"}) {
    try {
      (void)parse(R"({"op":"explore","workload":"x","options":{")" + field +
                  R"(":"multisim"}})");
      FAIL() << "expected ServeError for options." << field;
    } catch (const ServeError& e) {
      const std::string expected = "'options." + field + "': unknown field";
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

TEST(Protocol, ParsesFullRequest) {
  const Request r = parseRequest(JsonValue::parse(R"({
    "id": 7, "op": "explore", "workload": "matmul",
    "options": {"em_nj": 2.5, "write_policy": "write-through",
                "replacement": "FIFO",
                "ranges": {"max_cache_bytes": 128, "sweep_tiling": false}},
    "selection": {"metric": "min_cycles", "energy_bound": 1e6},
    "include_points": true})"));
  EXPECT_EQ(r.op, RequestOp::Explore);
  EXPECT_EQ(r.workload, "matmul");
  EXPECT_DOUBLE_EQ(r.options.energy.emNj, 2.5);
  EXPECT_EQ(r.options.writePolicy, WritePolicy::WriteThrough);
  EXPECT_EQ(r.options.replacement, ReplacementPolicy::FIFO);
  EXPECT_EQ(r.options.ranges.maxCacheBytes, 128u);
  EXPECT_FALSE(r.options.ranges.sweepTiling);
  EXPECT_EQ(r.metric, SelectionMetric::MinCycles);
  ASSERT_TRUE(r.energyBound.has_value());
  EXPECT_TRUE(r.includePoints);
}

TEST(Protocol, CanonicalKeySplitsIntoRangesAndModel) {
  ExploreOptions a;
  EXPECT_EQ(canonicalExploreKey(a),
            canonicalRangesKey(a.ranges) + canonicalModelKey(a));
  // Policies move the key (and with them the resolved engine).
  ExploreOptions fifo = a;
  fifo.replacement = ReplacementPolicy::FIFO;
  EXPECT_NE(canonicalExploreKey(a), canonicalExploreKey(fifo));
  ExploreOptions rnd = a;
  rnd.replacement = ReplacementPolicy::Random;
  EXPECT_NE(canonicalExploreKey(a), canonicalExploreKey(rnd));
  // Model changes move the key; range changes move only the range half.
  ExploreOptions em = a;
  em.energy.emNj = 9.0;
  EXPECT_EQ(canonicalRangesKey(em.ranges), canonicalRangesKey(a.ranges));
  EXPECT_NE(canonicalModelKey(em), canonicalModelKey(a));
}

TEST(Protocol, CanonicalModelKeysArePinnedPerBackend) {
  // Store keys outlive a build: these strings must not move when the
  // backend resolution is refactored, or every cached result misses.
  ExploreOptions lru;
  EXPECT_EQ(canonicalModelKey(lru),
            "alpha=1;beta=2;gamma=20;dact=0.5;em=4.9500000000000002;"
            "mainbpa=1;tag=0;abits=32;leak=0;"
            "hit=1,1.1000000000000001,1.1200000000000001,"
            "1.1399999999999999,;miss=40,40,42,44,48,56,72,;layout=1;bus=1;"
            "wenergy=0;wp=write-back;repl=LRU;backend=stackdist");
  ExploreOptions random;
  random.replacement = ReplacementPolicy::Random;
  EXPECT_EQ(canonicalModelKey(random),
            "alpha=1;beta=2;gamma=20;dact=0.5;em=4.9500000000000002;"
            "mainbpa=1;tag=0;abits=32;leak=0;"
            "hit=1,1.1000000000000001,1.1200000000000001,"
            "1.1399999999999999,;miss=40,40,42,44,48,56,72,;layout=1;bus=1;"
            "wenergy=0;wp=write-back;repl=random;backend=multisim");
}

// --------------------------------------------------------- result store

/// A compute callback's result for tests that only count outcomes.
[[nodiscard]] ResultStore::Computed emptyResult() {
  return {ExplorationResult{}, false};
}

TEST(ResultStore, SingleFlightSharesOneComputation) {
  ResultStore store;
  const ResultStore::Key key{"k1", ""};
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&] {
      const ResultStore::Resolved resolved =
          store.resolve(key, [&](const ResultStore::Siblings&) {
            computes.fetch_add(1);
            // Compute slowly so the other callers actually wait.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return emptyResult();
          });
      EXPECT_NE(resolved.value, nullptr);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(store.counters().hits, 5u);
  EXPECT_EQ(store.counters().misses, 1u);
}

TEST(ResultStore, FailedLeaderHandsOverToAWaiter) {
  ResultStore store;
  const ResultStore::Key key{"k1", ""};
  std::atomic<bool> firstEntered{false};
  std::atomic<bool> secondCalling{false};
  const auto failing =
      [&](const ResultStore::Siblings&) -> ResultStore::Computed {
    firstEntered.store(true);
    while (!secondCalling.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Throw only once the second caller is (very likely) waiting.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("transient");
  };
  std::thread first([&] {
    EXPECT_THROW((void)store.resolve(key, failing), std::runtime_error);
  });
  while (!firstEntered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The key is claimed: this caller waits, then, once the first compute
  // throws, computes itself instead of receiving a null value or hanging.
  bool tookOver = false;
  secondCalling.store(true);
  const ResultStore::Resolved second =
      store.resolve(key, [&](const ResultStore::Siblings&) {
        tookOver = true;
        return emptyResult();
      });
  first.join();
  EXPECT_TRUE(tookOver);
  EXPECT_EQ(second.source, ResultStore::Source::Miss);
  EXPECT_EQ(store.entries(), 1u);
}

TEST(ResultStore, InvalidationBlocksStalePublishes) {
  ResultStore store;
  const ResultStore::Key key{"k1", ""};
  const ResultStore::Resolved first =
      store.resolve(key, [&](const ResultStore::Siblings&) {
        EXPECT_EQ(store.invalidateAll(), 1u);
        return emptyResult();
      });
  // The value still answers the request that computed it, but it was
  // computed against the invalidated model: it must not enter the cache,
  // and the next lookup must be a fresh miss.
  EXPECT_NE(first.value, nullptr);
  EXPECT_EQ(first.source, ResultStore::Source::Miss);
  EXPECT_EQ(store.entries(), 0u);
  int computes = 0;
  const ResultStore::Resolved after =
      store.resolve(key, [&](const ResultStore::Siblings&) {
        ++computes;
        return emptyResult();
      });
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(after.source, ResultStore::Source::Miss);
  EXPECT_EQ(store.entries(), 1u);
}

TEST(ResultStore, EvictsLeastRecentlyUsedReadyEntries) {
  ResultStore store(ResultStore::Config{2});
  int computes = 0;
  const auto compute = [&](const ResultStore::Siblings&) {
    ++computes;
    return emptyResult();
  };
  for (int i = 0; i < 4; ++i) {
    (void)store.resolve({"k" + std::to_string(i), ""}, compute);
  }
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_EQ(store.resolve({"k3", ""}, compute).source,
            ResultStore::Source::Hit);
  EXPECT_EQ(store.resolve({"k0", ""}, compute).source,
            ResultStore::Source::Miss);
  EXPECT_EQ(computes, 5);
}

// ------------------------------------------------------------ job queue

TEST(JobQueue, BackpressureBlocksPushUntilPop) {
  JobQueue<int> queue(2);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(3));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pushed.load()) << "push must block while the queue is full";
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(JobQueue, CloseDrainsRemainingItems) {
  JobQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3)) << "closed queue must reject new items";
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.pop(out)) << "closed and empty means done";
}

// -------------------------------------------------------------- server

/// Small sweep so every server test stays in the tier-1 budget.
constexpr const char* kSmallRanges =
    R"("ranges":{"on_chip_bytes":128,"max_cache_bytes":128,)"
    R"("max_line_bytes":16,"max_associativity":2,"max_tiling":4})";

[[nodiscard]] ExploreOptions smallOptions() {
  ExploreOptions o;
  o.ranges.onChipBytes = 128;
  o.ranges.maxCacheBytes = 128;
  o.ranges.maxLineBytes = 16;
  o.ranges.maxAssociativity = 2;
  o.ranges.maxTiling = 4;
  return o;
}

[[nodiscard]] JsonValue response(Server& server, const std::string& line) {
  return JsonValue::parse(server.handleLine(line));
}

[[nodiscard]] const JsonValue& field(const JsonValue& v,
                                     const std::string& key) {
  const auto& object = v.asObject();
  const auto it = object.find(key);
  EXPECT_NE(it, object.end()) << "missing field " << key << " in " << v.dump();
  if (it == object.end()) throw std::runtime_error("missing " + key);
  return it->second;
}

[[nodiscard]] bool okOf(const JsonValue& v) {
  return field(v, "ok").asBool();
}

/// Feed `lines` through a full run() and index the responses by id.
[[nodiscard]] std::map<std::string, JsonValue> runLines(
    Server& server, const std::vector<std::string>& lines) {
  std::stringstream in;
  for (const std::string& line : lines) in << line << '\n';
  std::stringstream out;
  server.run(in, out);
  std::map<std::string, JsonValue> byId;
  std::string line;
  while (std::getline(out, line)) {
    JsonValue v = JsonValue::parse(line);
    const JsonValue& id = field(v, "id");
    byId.emplace(id.isString() ? id.asString() : id.dump(), std::move(v));
  }
  return byId;
}

TEST(Server, ExploreResponseIsBitIdenticalToDirectCall) {
  const ExplorationResult direct =
      Explorer(smallOptions()).explore(registeredKernel("matadd"));
  Server server;
  const JsonValue v = response(
      server, std::string(R"({"id":1,"op":"explore","workload":"matadd",)") +
                  R"("options":{)" + kSmallRanges + R"(},)" +
                  R"("include_points":true})");
  ASSERT_TRUE(okOf(v)) << v.dump();
  EXPECT_EQ(field(v, "csv").asString(), toCsvString(direct));
  EXPECT_EQ(field(v, "points").asNumber(),
            static_cast<double>(direct.points.size()));
  // The selected point is the default min-energy selection.
  const auto selected = minEnergyPoint(direct.points);
  ASSERT_TRUE(selected.has_value());
  EXPECT_EQ(field(field(v, "selected"), "label").asString(),
            selected->label());
  EXPECT_DOUBLE_EQ(field(field(v, "selected"), "energy_nj").asNumber(),
                   selected->energyNj);
}

TEST(Server, SearchResponseIsBitIdenticalToDirectCall) {
  search::SearchOptions searchOptions;
  searchOptions.seed = 7;
  searchOptions.populationSize = 8;
  searchOptions.generations = 3;
  const search::SearchResult direct =
      Explorer(smallOptions())
          .searchPareto(registeredKernel("matadd"), searchOptions);
  std::vector<search::FrontRow> rows;
  for (const search::SearchPoint& p : direct.front) {
    rows.push_back(search::toFrontRow(direct.workload, p));
  }
  std::ostringstream directCsv;
  search::writeFrontCsv(directCsv, rows);

  Server server;
  const JsonValue v = response(
      server, std::string(R"({"id":1,"op":"search","workload":"matadd",)") +
                  R"("options":{)" + kSmallRanges + R"(},)" +
                  R"("search":{"seed":7,"pop":8,"gens":3},)" +
                  R"("include_points":true})");
  ASSERT_TRUE(okOf(v)) << v.dump();
  EXPECT_EQ(field(v, "csv").asString(), directCsv.str());
  EXPECT_EQ(field(v, "front").asNumber(),
            static_cast<double>(direct.front.size()));
  EXPECT_EQ(field(v, "evaluations").asNumber(),
            static_cast<double>(direct.evaluations));
  EXPECT_EQ(field(v, "exact").asBool(), direct.exact);
}

TEST(Server, JointSearchWithWriteEnergyIsRejected) {
  // The joint space carries an L2 gene, which has no write-energy
  // model: the request fails cleanly instead of mixing energy models.
  Server server;
  const JsonValue v = response(
      server, std::string(R"({"id":1,"op":"search","workload":"matadd",)") +
                  R"("options":{"write_energy":true,)" + kSmallRanges +
                  R"(},"search":{"joint":true}})");
  EXPECT_FALSE(okOf(v)) << v.dump();
  EXPECT_NE(field(v, "error").asString().find("includeWriteEnergy"),
            std::string::npos)
      << v.dump();
}

TEST(Server, TraceResponseIsBitIdenticalToDirectCall) {
  const std::string path = testing::TempDir() + "serve_test_trace.din";
  {
    std::ofstream file(path);
    for (int i = 0; i < 400; ++i) {
      file << (i % 3 == 0 ? 1 : 0) << ' ' << std::hex << (i * 12 % 256)
           << std::dec << '\n';
    }
  }
  const ExploreOptions options = smallOptions();
  FileTraceSource source(path);
  const TraceWindow window{0, 50, 0};
  const ExplorationResult direct =
      exploreTrace(path, source, options, window);

  Server server;
  const JsonValue v = response(
      server, std::string(R"({"id":1,"op":"trace","trace":")") + path +
                  R"(","window":{"warmup":50},)" + R"("options":{)" +
                  kSmallRanges + R"(},"include_points":true})");
  ASSERT_TRUE(okOf(v)) << v.dump();
  EXPECT_EQ(field(v, "csv").asString(), toCsvString(direct));
  // Second identical request: served from the store.
  const JsonValue again = response(
      server, std::string(R"({"id":2,"op":"trace","trace":")") + path +
                  R"(","window":{"warmup":50},)" + R"("options":{)" +
                  kSmallRanges + R"(},"include_points":true})");
  ASSERT_TRUE(okOf(again)) << again.dump();
  EXPECT_TRUE(field(again, "cached").asBool());
  EXPECT_EQ(field(again, "csv").asString(), toCsvString(direct));
}

TEST(Server, CacheHitStress) {
  // Phase 1: seed the store with the wide sweep.
  Server server;
  const std::string wideBody =
      std::string(R"("op":"explore","workload":"matadd","options":{)") +
      kSmallRanges + R"(},"include_points":true})";
  ASSERT_TRUE(okOf(response(server, R"({"id":"seed",)" + wideBody)));

  // Phase 2: N identical wide + M identical narrow requests, all
  // concurrent. The narrow grid is strictly inside the wide one.
  const std::string narrowBody =
      R"("op":"explore","workload":"matadd","options":{"ranges":{)"
      R"("on_chip_bytes":64,"max_cache_bytes":64,"max_line_bytes":8,)"
      R"("max_associativity":2,"max_tiling":2}},"include_points":true})";
  constexpr int kWide = 6;
  constexpr int kNarrow = 4;
  std::vector<std::string> lines;
  for (int i = 0; i < kWide; ++i) {
    lines.push_back(R"({"id":"w)" + std::to_string(i) + R"(",)" + wideBody);
  }
  for (int i = 0; i < kNarrow; ++i) {
    lines.push_back(R"({"id":"n)" + std::to_string(i) + R"(",)" +
                    narrowBody);
  }
  const auto byId = runLines(server, lines);
  ASSERT_EQ(byId.size(), static_cast<std::size_t>(kWide + kNarrow));

  const ExplorationResult narrowDirect = [&] {
    ExploreOptions o;
    o.ranges.onChipBytes = 64;
    o.ranges.maxCacheBytes = 64;
    o.ranges.maxLineBytes = 8;
    o.ranges.maxAssociativity = 2;
    o.ranges.maxTiling = 2;
    return Explorer(o).explore(registeredKernel("matadd"));
  }();

  int subsets = 0;
  for (const auto& [id, v] : byId) {
    ASSERT_TRUE(okOf(v)) << v.dump();
    if (id[0] == 'w') {
      EXPECT_TRUE(field(v, "cached").asBool()) << id;
    } else {
      // Narrow responses re-select from the cached wide sweep — and
      // stay bit-identical to the direct narrow exploration.
      EXPECT_EQ(field(v, "csv").asString(), toCsvString(narrowDirect))
          << id;
      if (field(v, "subset").asBool()) ++subsets;
    }
  }
  EXPECT_EQ(subsets, 1) << "exactly one narrow leader re-selects";

  const ResultStore::Counters counters = server.store().counters();
  EXPECT_EQ(counters.misses, 1u) << "only the phase-1 seed computed";
  EXPECT_EQ(counters.subsetHits, 1u);
  EXPECT_EQ(counters.hits, static_cast<std::uint64_t>(kWide + kNarrow - 1));
}

TEST(Server, SubsetReselectionAcrossRangeShapes) {
  // One wide sweep answers narrower requests of every range shape the
  // covering check admits, each bit-identical to a direct exploration.
  Server server;
  ASSERT_TRUE(okOf(response(
      server, std::string(R"({"id":"wide","op":"explore","workload":"matadd",)"
                          R"("options":{)") +
                  kSmallRanges + "}}")));

  struct Shape {
    const char* name;
    const char* bound;  ///< one more "ranges" field on kSmallRanges
    void (*narrow)(ExploreRanges&);
  };
  const Shape shapes[] = {
      {"direct-mapped only", R"("sweep_associativity":false)",
       [](ExploreRanges& r) { r.sweepAssociativity = false; }},
      {"untiled only", R"("sweep_tiling":false)",
       [](ExploreRanges& r) { r.sweepTiling = false; }},
      {"raised min cache", R"("min_cache_bytes":64)",
       [](ExploreRanges& r) { r.minCacheBytes = 64; }},
  };
  for (const Shape& shape : shapes) {
    std::string ranges = kSmallRanges;
    ranges.back() = ',';  // reopen the "ranges" object
    const JsonValue v = response(
        server,
        std::string(R"({"id":"narrow","op":"explore","workload":"matadd",)"
                    R"("options":{)") +
            ranges + shape.bound + R"(}},"include_points":true})");
    ASSERT_TRUE(okOf(v)) << shape.name << ": " << v.dump();
    EXPECT_TRUE(field(v, "subset").asBool()) << shape.name;
    ExploreOptions o = smallOptions();
    shape.narrow(o.ranges);
    EXPECT_EQ(field(v, "csv").asString(),
              toCsvString(Explorer(o).explore(registeredKernel("matadd"))))
        << shape.name;
  }
  EXPECT_EQ(server.store().counters().misses, 1u);
  EXPECT_EQ(server.store().counters().subsetHits, std::size(shapes));
}

TEST(Server, SubsetWalkSkipsNonCoveringSibling) {
  // Two cached sweeps share the request's base key. The narrow one
  // (direct-mapped only) sorts first among the siblings but lacks the
  // request's 2-way keys, so the walk must skip it and re-select from
  // the wide one.
  Server server;
  const auto explore = [&](const std::string& extra) {
    std::string ranges = kSmallRanges;
    if (!extra.empty()) {
      ranges.back() = ',';  // reopen the "ranges" object
      ranges += extra + "}";
    }
    return response(
        server,
        std::string(R"({"id":1,"op":"explore","workload":"matadd",)"
                    R"("options":{)") +
            ranges + R"(},"include_points":true})");
  };
  const JsonValue narrow = explore(R"("sweep_associativity":false)");
  ASSERT_TRUE(okOf(narrow)) << narrow.dump();
  const JsonValue wide = explore("");
  ASSERT_TRUE(okOf(wide)) << wide.dump();
  EXPECT_FALSE(field(wide, "subset").asBool())
      << "the narrow sweep does not contain the wide one";

  const JsonValue v = explore(R"("sweep_tiling":false)");
  ASSERT_TRUE(okOf(v)) << v.dump();
  EXPECT_TRUE(field(v, "subset").asBool());
  EXPECT_FALSE(field(v, "cached").asBool());
  ExploreOptions o = smallOptions();
  o.ranges.sweepTiling = false;
  EXPECT_EQ(field(v, "csv").asString(),
            toCsvString(Explorer(o).explore(registeredKernel("matadd"))));
  EXPECT_EQ(server.store().counters().misses, 2u);
  EXPECT_EQ(server.store().counters().subsetHits, 1u);
}

TEST(Server, BoundsChangeReselectsWithoutRecomputing) {
  Server server;
  const std::string base =
      std::string(R"("op":"explore","workload":"matadd","options":{)") +
      kSmallRanges + R"(})";
  const JsonValue unbounded =
      response(server, R"({"id":1,)" + base + "}");
  ASSERT_TRUE(okOf(unbounded));
  EXPECT_FALSE(field(unbounded, "cached").asBool());
  const double unboundedCycles =
      field(field(unbounded, "selected"), "cycles").asNumber();

  // Tighten the cycle bound: same cache key, new selection.
  const JsonValue bounded = response(
      server, R"({"id":2,)" + base +
                  R"(,"selection":{"cycle_bound":)" +
                  std::to_string(unboundedCycles * 0.999) + "}}");
  ASSERT_TRUE(okOf(bounded)) << bounded.dump();
  EXPECT_TRUE(field(bounded, "cached").asBool())
      << "bounds are not part of the cache key";
  EXPECT_EQ(field(bounded, "cache_key").asString(),
            field(unbounded, "cache_key").asString());
  const ExplorationResult direct =
      Explorer(smallOptions()).explore(registeredKernel("matadd"));
  const auto expected =
      bestUnderBounds(direct.points, unboundedCycles * 0.999, std::nullopt);
  if (expected.has_value()) {
    EXPECT_EQ(field(field(bounded, "selected"), "label").asString(),
              expected->label());
  } else {
    EXPECT_TRUE(field(bounded, "selected").isNull());
  }
  EXPECT_EQ(server.store().counters().misses, 1u);
  EXPECT_EQ(server.store().counters().hits, 1u);
}

TEST(Server, InvalidateForcesRecomputation) {
  Server server;
  const std::string line =
      std::string(R"({"id":1,"op":"explore","workload":"matadd",)") +
      R"("options":{)" + kSmallRanges + R"(}})";
  ASSERT_TRUE(okOf(response(server, line)));
  const JsonValue inv = response(server, R"({"id":9,"op":"invalidate"})");
  ASSERT_TRUE(okOf(inv));
  EXPECT_EQ(field(inv, "generation").asNumber(), 1.0);
  const JsonValue after = response(server, line);
  ASSERT_TRUE(okOf(after));
  EXPECT_FALSE(field(after, "cached").asBool());
  EXPECT_EQ(server.store().counters().misses, 2u);
}

TEST(Server, MalformedRequestsGetDiagnosticsNotCrashes) {
  Server server;
  const JsonValue junk = response(server, "{nope");
  EXPECT_FALSE(okOf(junk));
  EXPECT_NE(field(junk, "error").asString().find("JSON error"),
            std::string::npos);
  const JsonValue badOp = response(server, R"({"id":3,"op":"frobnicate"})");
  EXPECT_FALSE(okOf(badOp));
  EXPECT_EQ(field(badOp, "id").asNumber(), 3.0);
  EXPECT_NE(field(badOp, "error").asString().find("unknown op"),
            std::string::npos);
  const JsonValue badKernel =
      response(server, R"({"id":4,"op":"explore","workload":"nope"})");
  EXPECT_FALSE(okOf(badKernel));
  EXPECT_NE(field(badKernel, "error").asString().find("unknown kernel"),
            std::string::npos);
  // The server carries on serving after every rejection.
  EXPECT_TRUE(okOf(response(server, R"({"id":5,"op":"ping"})")));
}

TEST(Server, OversizedRequestRejectedAndConnectionSurvives) {
  ServerOptions options;
  options.maxRequestBytes = 256;
  options.workers = 2;
  Server server(options);
  std::string big = R"({"id":"big","op":"ping","workload":")";
  big += std::string(1024, 'x');
  big += R"("})";
  const auto byId = runLines(
      server, {big, R"({"id":"ok","op":"ping"})"});
  ASSERT_EQ(byId.size(), 2u);
  const JsonValue& rejected = byId.at("null");
  EXPECT_FALSE(okOf(rejected));
  EXPECT_NE(field(rejected, "error").asString().find("exceeds"),
            std::string::npos);
  EXPECT_TRUE(okOf(byId.at("ok")));
}

/// An istream buffer fed line-by-line from another thread: underflow
/// blocks until more text is appended (or finish() signals EOF). Lets
/// lifecycle tests sequence input against server-side state instead of
/// racing a stringstream that is entirely readable up front.
class BlockingInputBuf : public std::streambuf {
public:
  void append(const std::string& text) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      data_ += text;
    }
    ready_.notify_all();
  }
  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    ready_.notify_all();
  }

protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return pos_ < data_.size() || done_; });
    if (pos_ >= data_.size()) return traits_type::eof();
    current_ = data_[pos_++];
    setg(&current_, &current_, &current_ + 1);
    return traits_type::to_int_type(current_);
  }

private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::string data_;
  std::size_t pos_ = 0;
  bool done_ = false;
  char current_ = 0;
};

TEST(Server, GracefulDrainFinishesInflightAndShedsQueued) {
  // One worker, pinned in-flight by the onJobStart hook: job A is
  // being processed when the shutdown arrives, job B is still queued.
  // A must finish normally, B must get a clean shutdown error. Input
  // is fed step by step so each state is reached deterministically.
  std::atomic<bool> aEntered{false};
  std::atomic<bool> release{false};
  ServerOptions options;
  options.workers = 1;
  options.onJobStart = [&](const Request&) {
    aEntered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(options);
  BlockingInputBuf inputBuf;
  std::istream in(&inputBuf);
  std::stringstream out;
  std::thread serving([&] { server.run(in, out); });

  // Step 1: job A is being processed by the only worker.
  inputBuf.append(
      std::string(
          R"({"id":"a","op":"explore","workload":"matadd","options":{)") +
      kSmallRanges + R"(}})" + "\n");
  while (!aEntered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Step 2: job B sits in the queue (the worker is pinned on A).
  inputBuf.append(
      std::string(
          R"({"id":"b","op":"explore","workload":"matadd","options":{)") +
      kSmallRanges + R"(}})" + "\n");
  while (server.stats().requests.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Step 3: shutdown arrives; only then is the pinned worker released.
  inputBuf.append(R"({"id":"s","op":"shutdown"})" "\n");
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.store(true);
  serving.join();
  inputBuf.finish();

  std::map<std::string, JsonValue> byId;
  std::string line;
  while (std::getline(out, line)) {
    JsonValue v = JsonValue::parse(line);
    byId.emplace(field(v, "id").isNull() ? "s" : field(v, "id").asString(),
                 std::move(v));
  }
  ASSERT_EQ(byId.size(), 3u);
  EXPECT_TRUE(okOf(byId.at("a"))) << "in-flight request must finish";
  EXPECT_FALSE(okOf(byId.at("b")));
  EXPECT_NE(field(byId.at("b"), "error").asString().find("shutting down"),
            std::string::npos);
  EXPECT_TRUE(okOf(byId.at("s")));
  EXPECT_EQ(server.stats().drained.load(), 1u);
}

TEST(Server, InterleavedRequestsKeepTheirOwnReports) {
  // Two different workloads in flight at once (the hook holds each job
  // until both have entered, or a deadline passes when one worker ran
  // them back to back). Each response's RunReport must contain only
  // its own request's counters and spans — one serve.request span, one
  // store miss, and a sweep.points count matching its own sweep.
  std::atomic<int> entered{0};
  ServerOptions options;
  options.workers = 2;
  options.onJobStart = [&](const Request&) {
    entered.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (entered.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(options);
  const auto byId = runLines(
      server,
      {std::string(
           R"({"id":"a","op":"explore","workload":"matadd","options":{)") +
           kSmallRanges + R"(},"include_report":true})",
       std::string(
           R"({"id":"b","op":"explore","workload":"dequant","options":{)") +
           kSmallRanges + R"(},"include_report":true})"});
  ASSERT_EQ(byId.size(), 2u);
  for (const auto& [id, v] : byId) {
    ASSERT_TRUE(okOf(v)) << v.dump();
    const JsonValue& report = field(v, "report");
    const JsonValue& counters = field(report, "counters");
    // Exactly this request's store traffic: one miss, zero hits.
    EXPECT_EQ(field(counters, "serve.store_misses").asNumber(), 1.0) << id;
    EXPECT_EQ(counters.asObject().count("serve.store_hits"), 0u) << id;
    // The sweep instrumentation matches this request's own point count.
    EXPECT_EQ(field(counters, "sweep.points").asNumber(),
              field(v, "points").asNumber())
        << id;
    // Exactly one serve.request span was recorded in this report.
    int requestSpans = 0;
    for (const JsonValue& phase : field(report, "phases").asArray()) {
      if (field(phase, "name").asString() == "serve.request") {
        requestSpans += static_cast<int>(field(phase, "count").asNumber());
      }
    }
    EXPECT_EQ(requestSpans, 1) << id;
  }
  // The two workloads genuinely differ, so any cross-request bleed
  // would have broken the per-report sweep.points equality above.
  EXPECT_NE(field(byId.at("a"), "points").asNumber(), 0.0);
}

TEST(Server, InlineKernelSourceExploresAndCaches) {
  Server server;
  const std::string kernel =
      "array a[16][16] : 1\\nfor i = 0 .. 15\\n  for j = 0 .. 15\\n"
      "    a[i][j] = a[i][j] + 1\\n";
  const std::string line =
      std::string(R"({"id":1,"op":"explore","kernel_src":")") + kernel +
      R"(","options":{)" + kSmallRanges + R"(}})";
  const JsonValue first = response(server, line);
  ASSERT_TRUE(okOf(first)) << first.dump();
  EXPECT_FALSE(field(first, "cached").asBool());
  const JsonValue second = response(server, line);
  ASSERT_TRUE(okOf(second));
  EXPECT_TRUE(field(second, "cached").asBool());
}

TEST(Server, StatsReportStoreAndServerCounters) {
  Server server;
  ASSERT_TRUE(okOf(response(
      server, std::string(R"({"id":1,"op":"explore","workload":"matadd",)") +
                  R"("options":{)" + kSmallRanges + R"(}})")));
  const JsonValue stats = response(server, R"({"id":2,"op":"stats"})");
  ASSERT_TRUE(okOf(stats));
  EXPECT_EQ(field(field(stats, "store"), "misses").asNumber(), 1.0);
  EXPECT_EQ(field(field(stats, "store"), "entries").asNumber(), 1.0);
  EXPECT_EQ(field(field(stats, "server"), "requests").asNumber(), 2.0);
}

}  // namespace
}  // namespace memx::serve
