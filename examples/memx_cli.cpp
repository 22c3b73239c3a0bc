// memx_cli — command-line front end to the exploration library.
//
//   memx_cli explore <kernel> [--em <nJ>] [--no-layout] [--csv]
//                    [--write-energy] [--replacement <lru|fifo|plru|random>]
//                    [--search [--joint] [--seed <n>] [--pop <n>]
//                     [--gens <n>] [--budget <n>]]
//   memx_cli explore --trace <din-file[.gz]> [--skip <n>] [--warmup <n>]
//                    [--limit <n>] [common explore flags]
//   memx_cli simulate <din-file[.gz]> --cache <C..L..[S..]>
//                     [--skip <n>] [--warmup <n>] [--limit <n>]
//                     [--em <nJ>] [--write-energy]
//                     [--replacement <lru|fifo|plru|random>]
//   memx_cli layout <kernel> --cache <C..L..>
//   memx_cli icache <kernel>
//   memx_cli workingset <kernel> [--line <bytes>]
//   memx_cli spm <kernel> [--budget <bytes, default 512>] [--line <bytes>]
//   memx_cli legality <kernel>
//   memx_cli kernels
//   memx_cli serve [--workers <n>] [--queue <n>]
//   memx_cli request '<json-request-line>'
//
// Kernels: compress matmul matadd pde sor dequant transpose lu fir
//          matvec histogram — or a path to a .mx kernel file (see
//          examples/kernels/).
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "memx/cachesim/miss_classifier.hpp"
#include "memx/core/selection.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/icache/ifetch_model.hpp"
#include "memx/kernels/registry.hpp"
#include "memx/layout/offchip_assign.hpp"
#include "memx/loopir/kernel_parser.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/report/table.hpp"
#include "memx/search/front_io.hpp"
#include "memx/serve/server.hpp"
#include "memx/search/nsga.hpp"
#include "memx/spm/spm_explorer.hpp"
#include "memx/trace/din_io.hpp"
#include "memx/trace/file_source.hpp"
#include "memx/trace/working_set.hpp"
#include "memx/util/numeric_io.hpp"
#include "memx/xform/dependence.hpp"

namespace {

using namespace memx;

struct Args {
  std::vector<std::string> positional;
  double em = 4.95;
  bool noLayout = false;
  bool csv = false;
  bool writeEnergy = false;
  std::optional<std::string> cacheLabel;
  std::uint32_t lineBytes = 8;
  ReplacementPolicy replacement = ReplacementPolicy::LRU;
  bool search = false;
  bool joint = false;
  search::SearchOptions searchOptions;
  /// Search evaluations for explore --search, bytes for spm.
  std::optional<std::uint64_t> budget;
  std::optional<std::string> traceFile;
  TraceWindow window;
  unsigned workers = 0;
  std::size_t queueCapacity = 64;
};

/// Strict numeric flag parsing, mirroring result_io's discipline: a
/// lenient std::stoul would accept "8x", "-1" (wrapping) or " 12"
/// and silently mis-drive the run. Errors name the flag and the
/// offending value.
std::uint64_t parseFlagUnsigned(const std::string& flag,
                                const std::string& text,
                                std::uint64_t max) {
  const std::string where = flag + " value '" + text + "'";
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(where + ": not an unsigned integer");
  }
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(text, &pos);
    if (pos != text.size() || v > max) {
      throw std::invalid_argument(where + ": out of range");
    }
    return v;
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception&) {
    throw std::invalid_argument(where + ": out of range");
  }
}

ReplacementPolicy parseReplacementFlag(const std::string& text) {
  if (text == "lru") return ReplacementPolicy::LRU;
  if (text == "fifo") return ReplacementPolicy::FIFO;
  if (text == "plru") return ReplacementPolicy::TreePLRU;
  if (text == "random") return ReplacementPolicy::Random;
  throw std::invalid_argument("unknown replacement policy '" + text +
                              "' (expected lru, fifo, plru or random)");
}

double parseFlagDouble(const std::string& flag, const std::string& text) {
  const auto v = parseDoubleText(text);
  if (!v) {
    throw std::invalid_argument(flag + " value '" + text +
                                "': not a finite number");
  }
  return *v;
}

Args parseArgs(int argc, char** argv) {
  constexpr std::uint64_t kU32 = 0xffffffffull;
  constexpr std::uint64_t kU64 = ~0ull;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--em") {
      args.em = parseFlagDouble(arg, value());
    } else if (arg == "--no-layout") {
      args.noLayout = true;
    } else if (arg == "--csv") {
      args.csv = true;
    } else if (arg == "--write-energy") {
      args.writeEnergy = true;
    } else if (arg == "--cache") {
      args.cacheLabel = value();
    } else if (arg == "--line") {
      args.lineBytes =
          static_cast<std::uint32_t>(parseFlagUnsigned(arg, value(), kU32));
    } else if (arg == "--replacement") {
      args.replacement = parseReplacementFlag(value());
    } else if (arg == "--search") {
      args.search = true;
    } else if (arg == "--joint") {
      args.joint = true;
    } else if (arg == "--seed") {
      args.searchOptions.seed = parseFlagUnsigned(arg, value(), kU64);
    } else if (arg == "--pop") {
      args.searchOptions.populationSize =
          static_cast<std::uint32_t>(parseFlagUnsigned(arg, value(), kU32));
    } else if (arg == "--gens") {
      args.searchOptions.generations =
          static_cast<std::uint32_t>(parseFlagUnsigned(arg, value(), kU32));
    } else if (arg == "--budget") {
      args.budget = parseFlagUnsigned(arg, value(), kU64);
    } else if (arg == "--workers") {
      args.workers =
          static_cast<unsigned>(parseFlagUnsigned(arg, value(), 1024));
    } else if (arg == "--queue") {
      args.queueCapacity = static_cast<std::size_t>(
          parseFlagUnsigned(arg, value(), 1u << 20));
    } else if (arg == "--trace") {
      args.traceFile = value();
    } else if (arg == "--skip") {
      args.window.skip = parseFlagUnsigned(arg, value(), kU64);
    } else if (arg == "--warmup") {
      args.window.warmup = parseFlagUnsigned(arg, value(), kU64);
    } else if (arg == "--limit") {
      args.window.limit = parseFlagUnsigned(arg, value(), kU64);
    } else if (arg.starts_with("--")) {
      throw std::invalid_argument("unknown flag '" + arg + "'");
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

void emitResult(const ExplorationResult& result, bool csv) {
  Table t({"config", "miss rate", "cycles", "energy (nJ)"});
  for (const DesignPoint& p : result.points) {
    t.addRow({p.label(), fmtFixed(p.missRate, 4), fmtSig3(p.cycles),
              fmtSig3(p.energyNj)});
  }
  if (csv) {
    t.writeCsv(std::cout);
    return;
  }
  std::cout << t;
  const auto minE = minEnergyPoint(result.points);
  const auto minC = minCyclePoint(result.points);
  std::cout << "\nmin energy: " << minE->label() << " ("
            << fmtSig3(minE->energyNj) << " nJ)\n"
            << "min cycles: " << minC->label() << " ("
            << fmtSig3(minC->cycles) << ")\n";
}

void emitFront(const search::SearchResult& result, bool csv) {
  if (csv) {
    std::vector<search::FrontRow> rows;
    rows.reserve(result.front.size());
    for (const search::SearchPoint& p : result.front) {
      rows.push_back(search::toFrontRow(result.workload, p));
    }
    search::writeFrontCsv(std::cout, rows);
    return;
  }
  Table t({"config", "policies", "layout", "L2", "energy (nJ)", "cycles",
           "size (RBE)"});
  for (const search::SearchPoint& p : result.front) {
    t.addRow({p.decoded.key.label(),
              std::string(toString(p.decoded.replacement)) + "/" +
                  toString(p.decoded.writePolicy),
              p.decoded.optimizeLayout ? "opt" : "tight",
              p.decoded.l2 ? p.decoded.l2->label() : "-",
              fmtSig3(p.objectives[0]), fmtSig3(p.objectives[1]),
              fmtSig3(p.objectives[2])});
  }
  std::cout << t << "\nfront: " << result.front.size() << " points, "
            << result.evaluations << " evaluations (" << result.cacheHits
            << " cache hits) over " << result.spaceSize
            << "-genome space in " << result.generations
            << " generations; " << (result.exact ? "exact" : "approximate")
            << '\n';
}

/// The model flags shared by explore, explore --trace and simulate, so
/// the three compute the same point for the same flags.
ExploreOptions exploreOptions(const Args& args) {
  ExploreOptions options;
  options.energy.emNj = args.em;
  options.optimizeLayout = !args.noLayout;
  // Write-back is the default write policy, so --write-energy exercises
  // the writeback-charging metric.
  options.includeWriteEnergy = args.writeEnergy;
  // The sweep engine follows from the policy: Random simulates, every
  // other policy reads an exact stack-distance or policy-grid profile.
  options.replacement = args.replacement;
  return options;
}

int cmdExplore(const Args& args) {
  const ExploreOptions options = exploreOptions(args);
  if (args.traceFile) {
    // Trace mode: sweep (L, S) over a recorded din stream, pulled from
    // disk in bounded-memory chunks (gzip inflated on the fly).
    FileTraceSource source(*args.traceFile);
    const ExplorationResult result =
        exploreTrace(*args.traceFile, source, options, args.window);
    const IngestStats ingest = source.ingest();
    emitResult(result, args.csv);
    if (!args.csv) {
      std::cout << "ingested: " << ingest.refsDecoded << " references, "
                << ingest.bytesRead << " file bytes\n";
    }
    return 0;
  }
  const Kernel kernel = kernelByNameOrPath(args.positional.at(1));
  const Explorer explorer(options);
  if (args.search) {
    search::SearchOptions searchOptions = args.searchOptions;
    if (args.budget) searchOptions.maxEvaluations = *args.budget;
    if (args.joint) searchOptions.space = search::jointSpace(options.ranges);
    emitFront(explorer.searchPareto(kernel, searchOptions), args.csv);
    return 0;
  }
  emitResult(explorer.explore(kernel), args.csv);
  return 0;
}

int cmdSimulate(const Args& args) {
  if (!args.cacheLabel) {
    throw std::invalid_argument("simulate requires --cache <label>");
  }
  const std::string& path =
      args.traceFile ? *args.traceFile : args.positional.at(1);
  const CacheConfig cache = parseCacheLabel(*args.cacheLabel);
  const ExploreOptions options = exploreOptions(args);
  // Streamed: the trace never materializes, so multi-hundred-MB files
  // (plain or .gz) simulate in bounded memory.
  FileTraceSource source(path);
  const DesignPoint p =
      evaluateTracePoint(source, cache, options, args.window);
  const IngestStats ingest = source.ingest();
  std::cout << "trace: " << p.accesses << " counted references ("
            << ingest.refsDecoded << " decoded, " << ingest.bytesRead
            << " file bytes)\n"
            << "cache: " << cache.label() << "\n"
            << "miss rate: " << fmtFixed(p.missRate, 4) << "\n"
            << "cycles: " << fmtSig3(p.cycles) << "\n"
            << "energy: " << fmtSig3(p.energyNj) << " nJ\n";
  return 0;
}

int cmdLayout(const Args& args) {
  const Kernel kernel = kernelByNameOrPath(args.positional.at(1));
  const CacheConfig cache =
      parseCacheLabel(args.cacheLabel.value_or("C64L8"));
  const AssignmentPlan plan = assignConflictFree(kernel, cache);
  Table t({"array", "base", "row pitch", "padding", "status"});
  for (std::size_t a = 0; a < kernel.arrays.size(); ++a) {
    t.addRow({kernel.arrays[a].name,
              std::to_string(plan.arrays[a].baseAddr),
              plan.arrays[a].rowPitchBytes
                  ? std::to_string(plan.arrays[a].rowPitchBytes)
                  : "tight",
              std::to_string(plan.arrays[a].paddingBytes),
              plan.arrays[a].conflictFree ? "conflict-free"
                                          : "best-effort"});
  }
  std::cout << t;
  const MissBreakdown unopt = classifyMisses(
      cache, generateTrace(kernel, sequentialLayout(kernel)));
  const MissBreakdown opt =
      classifyMisses(cache, generateTrace(kernel, plan.layout));
  std::cout << "\nmiss rate: " << fmtFixed(unopt.missRate(), 4)
            << " (tight) -> " << fmtFixed(opt.missRate(), 4)
            << " (assigned); conflicts " << unopt.conflict << " -> "
            << opt.conflict << '\n';
  return 0;
}

int cmdIcache(const Args& args) {
  const Kernel kernel = kernelByNameOrPath(args.positional.at(1));
  const InstructionLayout layout;
  const Trace fetches = generateIFetchTrace(kernel, layout);
  ExploreOptions options;
  options.ranges.minCacheBytes = 32;
  options.ranges.maxAssociativity = 2;
  emitResult(exploreTrace("icache-" + kernel.name, fetches, options),
             args.csv);
  return 0;
}

int cmdWorkingSet(const Args& args) {
  const Kernel kernel = kernelByNameOrPath(args.positional.at(1));
  const ReuseProfile profile(generateTrace(kernel), args.lineBytes);
  Table t({"lines", "predicted fully-assoc miss rate"});
  for (std::uint64_t lines = 1; lines <= profile.uniqueLines();
       lines *= 2) {
    t.addRow({std::to_string(lines),
              fmtFixed(profile.predictedMissRate(lines), 4)});
  }
  std::cout << t << "\n90%-hit working set: "
            << profile.linesForHitRate(0.9) << " lines of "
            << args.lineBytes << " bytes\n";
  return 0;
}

int cmdSpm(const Args& args) {
  const Kernel kernel = kernelByNameOrPath(args.positional.at(1));
  const std::uint64_t budget = args.budget.value_or(512);
  if (budget > 0xffffffffull) {
    throw std::invalid_argument("--budget value '" + std::to_string(budget) +
                                "': out of range");
  }
  Table t({"split", "SPM arrays", "cache miss rate", "cycles",
           "energy (nJ)"});
  for (const SplitResult& r :
       exploreBudgetSplits(kernel, static_cast<std::uint32_t>(budget),
                           args.lineBytes)) {
    std::string arrays;
    for (const std::string& a : r.spmArrays) {
      if (!arrays.empty()) arrays += ",";
      arrays += a;
    }
    t.addRow({r.label(), arrays.empty() ? "-" : arrays,
              fmtFixed(r.cacheMissRate, 4), fmtSig3(r.cycles),
              fmtSig3(r.energyNj)});
  }
  std::cout << t;
  return 0;
}

int cmdLegality(const Args& args) {
  const Kernel kernel = kernelByNameOrPath(args.positional.at(1));
  Table t({"transform", "legal"});
  if (kernel.nest.depth() >= 2) {
    t.addRow({"tile2D", tilingIsLegal(kernel) ? "yes" : "no"});
    t.addRow({"interchange(0,1)",
              interchangeIsLegal(kernel, 0, 1) ? "yes" : "no"});
  } else {
    t.addRow({"tile2D", "n/a (1-deep nest)"});
  }
  std::cout << t;
  Table deps({"kind", "src", "dst", "distance"});
  for (const Dependence& d : computeDependences(kernel)) {
    std::string dist = "(";
    for (std::size_t i = 0; i < d.distance.size(); ++i) {
      if (i) dist += ",";
      dist += d.distance[i].known()
                  ? std::to_string(*d.distance[i].value)
                  : std::string("*");
    }
    dist += ")";
    deps.addRow({toString(d.kind), std::to_string(d.srcAccess),
                 std::to_string(d.dstAccess), dist});
  }
  std::cout << "\ndependences:\n" << deps;
  return 0;
}

serve::Server* gServeServer = nullptr;

extern "C" void memxCliOnSignal(int) {
  // Async-signal-safe: only sets relaxed atomic flags. The blocked
  // stdin read returns EINTR (the handler is installed without
  // SA_RESTART), the reader loop observes the drain flag, in-flight
  // requests finish, and queued ones get a clean shutdown error.
  if (gServeServer != nullptr) gServeServer->requestDrain();
}

int cmdServe(const Args& args) {
  serve::ServerOptions options;
  options.workers = args.workers;
  options.queueCapacity = args.queueCapacity;
  serve::Server server(options);
  gServeServer = &server;
  struct sigaction action = {};
  action.sa_handler = memxCliOnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  server.run(std::cin, std::cout);
  gServeServer = nullptr;
  return 0;
}

int cmdRequest(const Args& args) {
  // One-shot client mode: process a single request line in-process and
  // print the response — the protocol without the long-running server.
  serve::Server server;
  const std::string response = server.handleLine(args.positional.at(1));
  std::cout << response << '\n';
  // Exit nonzero on an error response so shell pipelines can branch.
  return response.find("\"ok\":true") != std::string::npos ? 0 : 1;
}

int run(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (args.positional.empty()) {
    std::cerr << "usage: memx_cli "
                 "<explore|simulate|layout|icache|workingset|spm|"
                 "legality|kernels|serve|request> "
                 "...\n";
    return 2;
  }
  const std::string& cmd = args.positional.front();
  if (cmd == "serve") return cmdServe(args);
  if (cmd == "kernels") {
    for (const std::string& k : kernelRegistryNames()) std::cout << k << '\n';
    return 0;
  }
  // explore/simulate take their input from --trace instead of a
  // positional argument when given.
  const bool traceDriven =
      args.traceFile && (cmd == "explore" || cmd == "simulate");
  if (args.positional.size() < 2 && !traceDriven) {
    throw std::invalid_argument(cmd + " requires an argument");
  }
  if (cmd == "request") return cmdRequest(args);
  if (cmd == "explore") return cmdExplore(args);
  if (cmd == "spm") return cmdSpm(args);
  if (cmd == "legality") return cmdLegality(args);
  if (cmd == "simulate") return cmdSimulate(args);
  if (cmd == "layout") return cmdLayout(args);
  if (cmd == "icache") return cmdIcache(args);
  if (cmd == "workingset") return cmdWorkingSet(args);
  throw std::invalid_argument("unknown command '" + cmd + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "memx_cli: " << e.what() << '\n';
    return 1;
  }
}
