// egobw_perfbench: runs one named workload for a fixed time from a seed,
// checks every answer it gets, and prints the metrics as one JSON line.
//
//   egobw_perfbench --workload rmat-batch|update-stream|serve-zipf
//                   --seed N --seconds S --trace 0|1
//                   [--work-dir DIR] [--commit ID]
//
// --trace 0 measures with tracing off. --trace 1 spends half the time
// untraced and half traced, adds the per-layer values and writes the spans
// to DIR/spans-<workload>-<seed>.jsonl. The result line holds every value
// the workload measured, by name; run.py picks the mode's metrics and their
// units from BENCHMARK.json. README.md says what each one measures on each
// workload.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include "approx/approx_topk.h"
#include "benchlib/reporting.h"
#include "benchlib/workloads.h"
#include "core/all_ego.h"
#include "core/diamond_kernel.h"
#include "core/opt_search.h"
#include "dynamic/lazy_topk.h"
#include "dynamic/local_update.h"
#include "graph/generators.h"
#include "metrics.h"
#include "parallel/parallel_opt_search.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "util/rank_correlation.h"
#include "util/simd_intersect.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using egobw::Graph;
using egobw::SearchStats;
using egobw::TopKResult;
using egobw::VertexId;
using egobw::WallTimer;

// The repository's differential tolerance for CB values.
constexpr double kTol = 1e-6;
// The diamond kernel picks its big-big intersection path from a probe/step
// cost ratio that it calibrates once per process by timing; on a shared
// 4-core VM the calibration read 2.3 to 3.5 from one process to the next.
// The benchmark pins the ratio through the kernel's bench hook, so every
// run takes the same paths; the answers do not depend on it.
constexpr double kScanProbeRatio = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string commit = "unknown";
};

/// What a workload hands back: the operation tally (the run is correct when
/// nothing failed) and the metric values it measured.
struct Outcome {
  Tally tally;
  std::map<std::string, double> values;

  void Check(bool ok) { tally.Record(ok); }
};

// ------------------------------------------------------------- process --

/// Resets the process RSS high-water mark (VmHWM) to the current RSS.
void ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// VmHWM of this process in MiB (0 if /proc is unavailable).
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Returns the pages the allocator holds free, in every arena, to the
/// system. Called before each measured call of a pass, so the call's peak
/// RSS does not depend on what the threads of an earlier call left behind.
void ReturnFreedMemory() { malloc_trim(0); }

/// Tracks the process-wide peak across per-phase VmHWM resets: a reset
/// forgets the earlier peak, so each phase's reading is folded in first.
class RssPhases {
 public:
  explicit RssPhases(bool per_phase) : per_phase_(per_phase) {}
  void Begin() {
    if (!per_phase_) return;
    peak_ = std::max(peak_, PeakRssMb());
    ResetPeakRss();
  }
  double End() {
    double now = PeakRssMb();
    peak_ = std::max(peak_, now);
    return now;
  }
  double ProcessPeak() { return std::max(peak_, PeakRssMb()); }

 private:
  bool per_phase_;
  double peak_ = 0.0;
};

/// Moves the calling thread across the CPUs it may run on, one in turn.
///
/// On a shared host, a CPU whose host core is busy with other work runs
/// this program 30-60% slower, and which CPU that is changes every few
/// seconds. The scheduler keeps a lone thread on one CPU, so without
/// rotation a whole run can sit on a slow one. Each repetition of serial
/// work runs pinned to the next CPU, and the fastest repetition is kept.
/// Work that starts threads runs unpinned: threads inherit the mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }

  /// Pins the calling thread to the next CPU in turn.
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  /// Gives the calling thread back every CPU it started with.
  void Release() {
    if (cpus_.size() < 2) return;
    sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

std::string FirstLineWith(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t colon = line.find(':');
      if (colon == std::string::npos) return line;
      size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

void PrintMachine(const Args& args) {
  utsname u{};
  uname(&u);
  std::string simd = !egobw::SimdIntersectCompiled()    ? "not-compiled"
                     : !egobw::SimdIntersectSupported() ? "unsupported"
                     : egobw::SimdIntersectEnabled()    ? "avx2"
                                                        : "disabled";
  std::printf(
      "{\"machine\": {\"nproc\": %u, \"cpu\": \"%s\", \"kernel\": \"%s\", "
      "\"simd\": \"%s\", \"scan_probe_ratio\": %.4f, \"commit\": \"%s\"}}\n",
      std::thread::hardware_concurrency(),
      JsonEscape(FirstLineWith("/proc/cpuinfo", "model name")).c_str(),
      JsonEscape(u.release).c_str(), simd.c_str(),
      egobw::ScanProbeCostRatio(), JsonEscape(args.commit).c_str());
}

std::vector<Entry> Entries(const TopKResult& r) {
  std::vector<Entry> out;
  for (const auto& e : r) out.push_back({e.vertex, e.cb});
  return out;
}

bool BitIdentical(const TopKResult& a, const TopKResult& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertex != b[i].vertex) return false;
    if (std::memcmp(&a[i].cb, &b[i].cb, sizeof(double)) != 0) return false;
  }
  return true;
}

bool ValuesMatch(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > kTol) return false;
  }
  return true;
}

/// Fresh exact CB of every vertex, the oracle of the answer checks.
std::vector<double> Reference(const Graph& g) {
  auto r = egobw::RunAllEgoBetweenness(g, egobw::AllEgoOptions{});
  return r.ok() ? r.value() : std::vector<double>{};
}

std::vector<double> Millis(const std::vector<double>& seconds) {
  std::vector<double> out;
  for (double s : seconds) out.push_back(s * 1e3);
  return out;
}

// --------------------------------------------------------- rmat-batch --
//
// The hub-skewed graph: a handful of hub exact evaluations dominate top-k,
// so this workload stresses the exact evaluator, the bound store, the
// parallel pool, the streaming S-map store and the sampling tier. It never
// touches the server, the dynamic engines or the naive evaluator.

Outcome RunRmatBatch(const Args& args, Tracer* tracer) {
  constexpr uint32_t kScale = 10, kEdgeFactor = 16, kK = 100;
  constexpr uint64_t kGraphSeed = 1001;
  constexpr size_t kThreads = 4;
  // Generation takes ~8 ms, so it is repeated and its median reported:
  // one slow allocation or page-fault burst does not decide setup_s.
  constexpr int kSetupRepeats = 15;
  Outcome out;
  RssPhases rss(true);
  CpuRotation cpus;

  std::vector<double> gen;
  Graph g;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cpus.Next();
    ScopedSpan span(tracer, "graph.gen", -1, 0);
    WallTimer t;
    g = egobw::RMat(kScale, kEdgeFactor, 0.57, 0.19, 0.19, kGraphSeed);
    gen.push_back(t.Seconds());
  }
  cpus.Release();
  out.values["setup_s"] = Median(gen);
  out.values["graph.gen_s"] = Median(gen);

  egobw::OptBSearchOptions serial_opts;
  egobw::ParallelOptBSearchOptions par_opts;
  egobw::ApproxOptions approx_opts;
  approx_opts.seed = args.seed;

  TopKResult first_serial;
  std::vector<double> first_all;
  std::vector<VertexId> first_approx;
  std::vector<double> serial_s, par_s, all_s, approx_s;
  double first_pass_rss_mb = 0.0;

  // One pass over the four public calls. `traced` adds the observer spans
  // and the per-phase RSS readings; its times are kept apart. The serial
  // calls each run on the next CPU in turn; the parallel call runs last,
  // on all CPUs, so what its threads leave behind lifts no other call's
  // peak in the first pass.
  Tracer off(false);
  double traced_serial_s = 0.0;
  auto pass = [&](uint64_t iter, bool traced) {
    Tracer* tr = traced ? tracer : &off;
    double times[4] = {0, 0, 0, 0};
    if (iter == 0) rss.Begin();

    SearchStats serial_stats;
    std::unique_ptr<SearchSpans> observer;
    TopKResult serial;
    {
      ScopedSpan span(tr, "core.opt_search", -1, iter);
      if (traced) {
        observer = std::make_unique<SearchSpans>(tracer, span.id(), iter);
        serial_opts.observer = observer.get();
      }
      ReturnFreedMemory();
      cpus.Next();
      WallTimer t;
      auto r = egobw::RunOptBSearch(g, kK, serial_opts, &serial_stats);
      times[0] = t.Seconds();
      serial_opts.observer = nullptr;
      out.Check(r.ok());
      if (r.ok()) serial = r.value();
    }

    SearchStats all_stats;
    std::vector<double> all;
    ReturnFreedMemory();
    if (traced) rss.Begin();
    {
      ScopedSpan span(tr, "core.all_ego", -1, iter);
      cpus.Next();
      WallTimer t;
      auto r = egobw::RunAllEgoBetweenness(g, egobw::AllEgoOptions{},
                                           &all_stats);
      times[2] = t.Seconds();
      out.Check(r.ok());
      if (r.ok()) all = r.value();
    }
    if (traced) out.values["allvertex.peak_rss_mb"] = rss.End();

    egobw::ApproxTopKResult approx;
    {
      ScopedSpan span(tr, "approx.topk", -1, iter);
      ReturnFreedMemory();
      cpus.Next();
      WallTimer t;
      auto r = egobw::RunApproxTopK(g, kK, approx_opts);
      times[3] = t.Seconds();
      out.Check(r.ok());
      if (r.ok()) approx = r.value();
    }

    SearchStats par_stats;
    TopKResult par;
    cpus.Release();
    ReturnFreedMemory();
    if (traced) rss.Begin();
    {
      ScopedSpan span(tr, "parallel.opt_search", -1, iter);
      WallTimer t;
      auto r = egobw::RunParallelOptBSearch(g, kK, kThreads, par_opts,
                                            &par_stats);
      times[1] = t.Seconds();
      out.Check(r.ok());
      if (r.ok()) par = r.value();
    }
    if (traced) out.values["par.peak_rss_mb"] = rss.End();
    if (iter == 0) first_pass_rss_mb = rss.End();

    // Answer checks: serial and parallel are bit-identical, both are the
    // top-k of the all-vertex vector, and repeated calls repeat exactly.
    out.Check(BitIdentical(serial, par));
    out.Check(MatchesTopK(Entries(serial), all, {}, kK, kTol));
    std::vector<VertexId> approx_ids;
    for (const auto& e : approx.entries) approx_ids.push_back(e.vertex);
    if (first_all.empty()) {
      first_serial = serial;
      first_all = all;
      first_approx = approx_ids;
    } else {
      out.Check(BitIdentical(serial, first_serial));
      out.Check(all == first_all);
      out.Check(approx_ids == first_approx);
    }

    std::fprintf(stderr, "pass %" PRIu64 "%s: serial %.3f s, parallel %.3f s, "
                 "all-vertex %.3f s, approx %.4f s\n", iter,
                 traced ? " (traced)" : "", times[0], times[1], times[2],
                 times[3]);
    if (!traced) {
      serial_s.push_back(times[0]);
      par_s.push_back(times[1]);
      all_s.push_back(times[2]);
      approx_s.push_back(times[3]);
      return;
    }
    const auto& ex = observer->exact_seconds();
    double ex_total = 0.0, ex_max = 0.0;
    for (double s : ex) {
      ex_total += s;
      ex_max = std::max(ex_max, s);
    }
    auto& v = out.values;
    v["search.pops"] = static_cast<double>(observer->pops());
    v["search.pushbacks"] = static_cast<double>(serial_stats.heap_pushbacks);
    v["search.pruned"] = static_cast<double>(serial_stats.pruned);
    v["exact.total_s"] = ex_total;
    v["exact.calls"] = static_cast<double>(serial_stats.exact_computations);
    v["exact.max_ms"] = ex_max * 1e3;
    v["exact.useful_ratio"] =
        serial_stats.exact_computations == 0
            ? 0.0
            : static_cast<double>(kK) /
                  static_cast<double>(serial_stats.exact_computations);
    v["exact.top10_share"] = TopShare(ex, 10);
    v["exact.edges_processed"] =
        static_cast<double>(serial_stats.edges_processed);
    v["exact.triangles"] = static_cast<double>(serial_stats.triangles);
    v["exact.connector_increments"] =
        static_cast<double>(serial_stats.connector_increments);
    v["par.exact_calls"] = static_cast<double>(par_stats.exact_computations);
    v["par.relaxed_pops"] = static_cast<double>(par_stats.relaxed_pops);
    v["par.pushbacks"] = static_cast<double>(par_stats.heap_pushbacks);
    v["allvertex.peak_live_maps"] =
        static_cast<double>(all_stats.peak_live_maps);
    v["allvertex.peak_live_map_mb"] =
        static_cast<double>(all_stats.peak_live_map_bytes) / 1048576.0;
    v["allvertex.evicted_rebuilds"] =
        static_cast<double>(all_stats.evicted_rebuilds);
    v["approx.scanned"] = static_cast<double>(approx.scanned);
    v["approx.samples"] = static_cast<double>(approx.total_samples);
    std::vector<double> est, exact;
    for (const auto& e : approx.entries) {
      est.push_back(e.estimate);
      exact.push_back(all[e.vertex]);
    }
    v["approx.spearman"] = egobw::SpearmanCorrelation(exact, est);
    traced_serial_s = times[0];
  };

  // Untraced passes fill the whole budget (half of it in a traced run);
  // every run makes at least one.
  double budget = args.trace ? args.seconds / 2 : args.seconds;
  WallTimer run;
  uint64_t iter = 0;
  do {
    pass(iter++, false);
  } while (run.Seconds() < budget);
  if (args.trace) pass(iter, true);

  // Every pass repeats the same four calls, so each call's time is the
  // fastest of its repetitions (metrics.h says why not the median).
  double serial = Fastest(serial_s);
  double par = Fastest(par_s);
  out.values["exact_ms"] = serial * 1e3;
  out.values["fast_ms"] = par * 1e3;
  out.values["throughput_per_s"] = g.NumVertices() / Fastest(all_s);
  out.values["quality"] = egobw::RecallAtK(
      [&] {
        std::vector<VertexId> ids;
        for (const auto& e : first_serial) ids.push_back(e.vertex);
        return ids;
      }(),
      first_approx);
  out.values["par.topk_ms"] = par * 1e3;
  out.values["par.speedup"] = par > 0 ? serial / par : 0.0;
  out.values["allvertex.ms"] = Fastest(all_s) * 1e3;
  out.values["approx.topk_ms"] = Fastest(approx_s) * 1e3;
  if (args.trace) {
    // search.setup_s and search.control_s come from the spans: control is
    // the self time of the serial call once setup and exact evaluations
    // are subtracted.
    std::vector<Span> spans = tracer->spans();
    std::vector<double> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].request != iter) continue;
      if (spans[i].name == "core.opt_search") {
        out.values["search.control_s"] = self[i];
      } else if (spans[i].name == "search.setup") {
        out.values["search.setup_s"] = spans[i].end - spans[i].start;
      }
    }
    out.values["trace.overhead_pct"] =
        100.0 * (traced_serial_s / Median(serial_s) - 1.0);
  }
  // The peak of the first pass: a fresh process making the four calls
  // once. Later passes start from what the allocator kept of earlier ones,
  // 4 MB at the first pass but 6-11 MB later, varying from run to run.
  out.values["peak_rss_mb"] = first_pass_rss_mb;
  return out;
}

// ------------------------------------------------------- update-stream --
//
// Writes beside reads: the same edge stream is applied to the local-update
// engine (every vertex's value maintained) and to the lazy engine (only the
// top-k, recomputed through the naive evaluator), with one fresh top-k read
// per ten lazy updates. The stream is a cycle: inserts of non-edges
// alternating with deletes of edges, then the same updates undone in
// reverse. A cycle brings an engine back to the graph it started from, so
// the run replays it in rounds and every round does the same work.

struct Update {
  bool insert;
  VertexId u, v;
};

/// A cycle of `pairs` inserts and `pairs` deletes, then their undoing.
/// The seed draws `pool` candidates per slot, inserts and deletes apart,
/// and keeps the middle one of each slot's block by endpoint degree sum.
/// An update costs roughly in proportion to the degrees it touches, so
/// every seed's cycle spans the same degree profile and costs about the
/// same; the seed picks the edges within it and their order.
std::vector<Update> UpdateCycle(const Graph& g, uint32_t pairs, uint32_t pool,
                                uint64_t seed) {
  using Pair = std::pair<VertexId, VertexId>;
  auto stratified = [&](std::vector<Pair> candidates) {
    auto weight = [&](const Pair& e) {
      return g.Degree(e.first) + g.Degree(e.second);
    };
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const Pair& a, const Pair& b) {
                       return weight(a) < weight(b);
                     });
    std::vector<Pair> picked;
    for (size_t i = pool / 2; i < candidates.size(); i += pool) {
      picked.push_back(candidates[i]);
    }
    std::shuffle(picked.begin(), picked.end(), std::mt19937_64(seed));
    return picked;
  };
  auto adds = stratified(egobw::PickNonEdges(g, pairs * pool, seed * 2 + 1));
  auto dels =
      stratified(egobw::PickExistingEdges(g, pairs * pool, seed * 2 + 2));
  std::vector<Update> cycle;
  for (size_t i = 0; i < std::min(adds.size(), dels.size()); ++i) {
    cycle.push_back({true, adds[i].first, adds[i].second});
    cycle.push_back({false, dels[i].first, dels[i].second});
  }
  for (size_t i = cycle.size(); i-- > 0;) {
    Update undo = cycle[i];
    undo.insert = !undo.insert;
    cycle.push_back(undo);
  }
  return cycle;
}

Outcome RunUpdateStream(const Args& args, Tracer* tracer) {
  constexpr uint32_t kScale = 8, kEdgeFactor = 16, kK = 25;
  constexpr uint64_t kGraphSeed = 1002;
  constexpr size_t kReadEvery = 10;
  // Set-up (~60 ms) is repeated and its median reported.
  constexpr int kSetupRepeats = 15;
  // The lazy engine's cycle: 100 inserts and 100 deletes, undone, with 40
  // reads; a round of it takes ~3 s.
  constexpr uint32_t kLazyPairs = 100, kLazyPool = 8;
  // The local engine, ~250 times cheaper per update, gets a cycle of its
  // own, twice as long (~20 ms), which it replays this many times after
  // each lazy round, each replay timed as a whole.
  constexpr uint32_t kLocalPairs = 200, kLocalPool = 4;
  constexpr size_t kLocalReplays = 10;
  Outcome out;
  RssPhases rss(args.trace);
  CpuRotation cpus;

  std::vector<double> gen, local_seed, lazy_seed, setup;
  Graph g;
  std::unique_ptr<egobw::LocalUpdateEngine> local;
  std::unique_ptr<egobw::LazyTopK> lazy;
  for (int i = 0; i < kSetupRepeats; ++i) {
    local.reset();
    lazy.reset();
    cpus.Next();
    WallTimer total;
    {
      ScopedSpan span(tracer, "graph.gen", -1, 0);
      WallTimer t;
      g = egobw::RMat(kScale, kEdgeFactor, 0.57, 0.19, 0.19, kGraphSeed);
      gen.push_back(t.Seconds());
    }
    rss.Begin();
    {
      ScopedSpan span(tracer, "dynamic.local_seed", -1, 0);
      WallTimer t;
      local = std::make_unique<egobw::LocalUpdateEngine>(g);
      local_seed.push_back(t.Seconds());
    }
    out.values["local.seed_peak_rss_mb"] = rss.End();
    {
      ScopedSpan span(tracer, "dynamic.lazy_seed", -1, 0);
      WallTimer t;
      lazy = std::make_unique<egobw::LazyTopK>(g, kK);
      lazy_seed.push_back(t.Seconds());
    }
    setup.push_back(total.Seconds());
  }
  cpus.Release();
  out.values["setup_s"] = Median(setup);
  out.values["graph.gen_s"] = Median(gen);
  out.values["local.seed_s"] = Median(local_seed);
  out.values["lazy.seed_s"] = Median(lazy_seed);

  const std::vector<Update> cycle =
      UpdateCycle(g, kLazyPairs, kLazyPool, args.seed * 2);
  const std::vector<Update> local_cycle =
      UpdateCycle(g, kLocalPairs, kLocalPool, args.seed * 2 + 1);
  auto apply = [](auto* engine, const Update& up) {
    return up.insert ? engine->InsertEdge(up.u, up.v)
                     : engine->DeleteEdge(up.u, up.v);
  };

  struct Samples {
    // Per call, every round.
    std::vector<double> local_s, lazy_s, read_s;
    // Per repetition of identical work: the mean local update of each
    // replay; and, from the second lazy round on, each round's time per
    // stretch of ten updates and a read, and per read.
    std::vector<double> local_replay_s;
    std::vector<std::vector<double>> stretch_s, round_read_s;
    uint64_t affected = 0, read_recomputes = 0, update_recomputes = 0;
    uint64_t matched_reads = 0;
  };

  // The local engine is also the oracle of the lazy reads: in each lazy
  // round it follows the lazy engine through the cycle, untimed, so each
  // read is checked against its AllCB() for the price of one ~30 us
  // update, not a fresh all-vertex pass. Both engines are checked against a
  // fresh pass at the end of every phase. Each lazy round and each local
  // replay runs on the next CPU in turn.
  Tracer off(false);
  uint64_t request = 0;
  auto phases = [&](double budget, Tracer* tr) {
    Samples s;
    WallTimer run;
    size_t round = 0;
    // The first round settles the lazy engine's stored bounds; the rounds
    // after it repeat about the same recomputations (within ~2%), and at
    // least one of them is timed.
    do {
      std::vector<double> stretch_s, read_s;
      double stretch = 0.0;
      cpus.Next();
      for (size_t i = 0; i < cycle.size(); ++i) {
        uint64_t before = lazy->exact_recomputations();
        int64_t id = tr->Open("dynamic.lazy_update", -1, ++request);
        WallTimer t;
        egobw::Status st = apply(lazy.get(), cycle[i]);
        double secs = t.Seconds();
        tr->Close(id);
        out.Check(st.ok());
        out.Check(apply(local.get(), cycle[i]).ok());
        s.lazy_s.push_back(secs);
        s.update_recomputes += lazy->exact_recomputations() - before;
        stretch += secs;
        if ((i + 1) % kReadEvery != 0) continue;
        before = lazy->exact_recomputations();
        id = tr->Open("dynamic.lazy_read", -1, request);
        WallTimer r;
        TopKResult top = lazy->CurrentTopK();
        secs = r.Seconds();
        tr->Close(id);
        s.read_s.push_back(secs);
        s.read_recomputes += lazy->exact_recomputations() - before;
        stretch_s.push_back(stretch + secs);
        read_s.push_back(secs);
        stretch = 0.0;
        bool ok = top.certified &&
                  MatchesTopK(Entries(top), local->AllCB(), {}, kK, kTol);
        out.Check(ok);
        s.matched_reads += ok ? 1 : 0;
      }
      if (round > 0) {
        s.stretch_s.push_back(stretch_s);
        s.round_read_s.push_back(read_s);
      }
      for (size_t r = 0; r < kLocalReplays; ++r) {
        cpus.Next();
        WallTimer replay;
        for (const Update& up : local_cycle) {
          int64_t id = tr->Open("dynamic.local_update", -1, ++request);
          WallTimer t;
          egobw::Status st = apply(local.get(), up);
          s.local_s.push_back(t.Seconds());
          tr->Close(id);
          out.Check(st.ok());
          s.affected += local->LastAffected().size();
        }
        s.local_replay_s.push_back(replay.Seconds() /
                                   static_cast<double>(local_cycle.size()));
      }
      ++round;
    } while (round < 2 || run.Seconds() < budget);
    cpus.Release();
    // Every phase ends on a read of the final graph, checked (with the
    // oracle's values) against a fresh pass.
    std::vector<double> fresh = Reference(lazy->graph().ToGraph());
    TopKResult top = lazy->CurrentTopK();
    out.Check(top.certified &&
              MatchesTopK(Entries(top), fresh, {}, kK, kTol));
    out.Check(ValuesMatch(local->AllCB(), fresh));
    return s;
  };

  double budget = args.trace ? args.seconds / 2 : args.seconds;
  Samples base = phases(budget, &off);
  auto& v = out.values;
  // Each is taken from the fastest repetitions of identical work (metrics.h
  // says why not the median): the mean read and the cycle's update and
  // read time add up the fastest time of each read and each stretch.
  std::vector<double> reads = FastestPerPiece(base.round_read_s);
  std::vector<double> stretches = FastestPerPiece(base.stretch_s);
  v["exact_ms"] = 1e3 * std::accumulate(reads.begin(), reads.end(), 0.0) /
                  static_cast<double>(reads.size());
  v["fast_ms"] = Fastest(base.local_replay_s) * 1e3;
  // The sustained rate of a client that reads the top-k every ten
  // updates: update and read time together (the checks are not timed).
  v["throughput_per_s"] =
      static_cast<double>(kReadEvery * stretches.size()) /
      std::accumulate(stretches.begin(), stretches.end(), 0.0);
  v["quality"] = base.read_s.empty()
                     ? 0.0
                     : static_cast<double>(base.matched_reads) /
                           static_cast<double>(base.read_s.size());

  if (args.trace) {
    Samples tr = phases(budget, tracer);
    Tail local_tail = TailOf(tr.local_s);
    Tail lazy_tail = TailOf(Millis(tr.lazy_s));
    v["local.update_p50_us"] = Median(tr.local_s) * 1e6;
    v["local.update_tail_us"] = local_tail.value * 1e6;
    v["local.update_tail_pct"] = local_tail.percentile;
    v["local.update_samples"] = static_cast<double>(local_tail.samples);
    v["local.affected_mean"] =
        tr.local_s.empty() ? 0.0
                           : static_cast<double>(tr.affected) /
                                 static_cast<double>(tr.local_s.size());
    v["lazy.update_p50_ms"] = Median(Millis(tr.lazy_s));
    v["lazy.update_tail_ms"] = lazy_tail.value;
    v["lazy.update_tail_pct"] = lazy_tail.percentile;
    v["lazy.update_samples"] = static_cast<double>(lazy_tail.samples);
    v["lazy.recomputes_per_update"] =
        tr.lazy_s.empty() ? 0.0
                          : static_cast<double>(tr.update_recomputes) /
                                static_cast<double>(tr.lazy_s.size());
    v["lazy.read_recomputes_mean"] =
        tr.read_s.empty() ? 0.0
                          : static_cast<double>(tr.read_recomputes) /
                                static_cast<double>(tr.read_s.size());
    v["lazy.reads"] = static_cast<double>(tr.read_s.size());
    v["trace.overhead_pct"] =
        100.0 * (Median(tr.local_s) / Median(base.local_s) - 1.0);
  }
  v["peak_rss_mb"] = rss.ProcessPeak();
  return out;
}

// ---------------------------------------------------------- serve-zipf --
//
// Served community queries on a triangle-rich collaboration graph, where
// an exact whole-graph query fits inside the default deadline (on R-MAT
// the same mix is mostly uncertified, so latency would just read the
// deadline). Closed loop: each client sends its next query only after the
// previous reply.

struct ClientLog {
  std::vector<double> subset_ms, full_ms, all_ms, overhead_ms;
  std::vector<double> engine_subset_ms, engine_full_ms;
  uint64_t certified = 0;
  Tally tally;
};

Outcome RunServeZipf(const Args& args, Tracer* tracer) {
  constexpr size_t kClients = 4;
  Outcome out;
  egobw::EgoBwServerOptions opts;
  opts.workers = 2;
  opts.queue_depth = 8;
  opts.default_deadline_ms = 100;
  int socket_index = 0;
  auto next_socket = [&] {
    return args.work_dir + "/serve-" + std::to_string(getpid()) + "-" +
           std::to_string(socket_index++) + ".sock";
  };
  auto make_graph = [&] {
    // The DBLP-sim graph of benchlib/datasets.cc.
    return egobw::Collaboration(30000, 42000, 5, 600, 0.08, 1003);
  };

  // Set-up (~60 ms) is repeated and its median reported.
  constexpr int kSetupRepeats = 15;
  std::vector<double> gen, setup;
  Graph g;
  std::unique_ptr<egobw::EgoBwServer> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server) server->Drain(std::chrono::milliseconds(0));
    server.reset();
    WallTimer total;
    {
      ScopedSpan span(tracer, "graph.gen", -1, 0);
      WallTimer t;
      g = make_graph();
      gen.push_back(t.Seconds());
    }
    opts.socket_path = next_socket();
    {
      ScopedSpan span(tracer, "server.start", -1, 0);
      server = std::make_unique<egobw::EgoBwServer>(g, opts);
      egobw::Status st = server->Start();
      out.Check(st.ok());
      if (!st.ok()) {
        std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
        return out;
      }
    }
    setup.push_back(total.Seconds());
  }
  out.values["setup_s"] = Median(setup);
  out.values["graph.gen_s"] = Median(gen);

  const std::vector<double> reference = Reference(g);
  egobw::ServingMixOptions mix_opts;
  mix_opts.count = 20000;
  mix_opts.k = 10;
  mix_opts.subset_cap = 128;
  mix_opts.full_graph_fraction = 0.02;
  const auto mix = egobw::ZipfServingMix(g, mix_opts, args.seed);
  const std::string socket = opts.socket_path;

  Tracer off(false);
  auto serve = [&](double budget, Tracer* tr) {
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> clients;
    WallTimer run;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[c];
        for (size_t j = c; run.Seconds() < budget; j += kClients) {
          const egobw::ServingQuerySpec& spec = mix[j % mix.size()];
          egobw::QueryRequest req;
          req.k = spec.k;
          req.theta = spec.theta;
          req.deadline_ms = spec.deadline_ms;
          req.subset = spec.subset;
          // on_cancel stays kAnytime, the server's default: a query that
          // hits its deadline comes back kOk and uncertified, which lowers
          // `quality` and is not a failure. Any non-OK verdict is one.
          double t0 = tr->Now();
          WallTimer t;
          auto resp = egobw::QueryServer(socket, req);
          double ms = t.Millis();
          double t1 = tr->Now();
          Reply reply;
          reply.transport_ok = resp.ok();
          if (resp.ok()) {
            const egobw::QueryResponse& r = resp.value();
            reply.verdict_ok = r.code == egobw::StatusCode::kOk;
            reply.certified = r.certified;
            if (reply.verdict_ok && r.certified) {
              reply.matches = MatchesTopK(Entries(r.topk), reference,
                                          spec.subset, spec.k, kTol);
            }
            double engine_ms = r.engine_seconds * 1e3;
            bool full = spec.subset.empty();
            (full ? log.full_ms : log.subset_ms).push_back(ms);
            (full ? log.engine_full_ms : log.engine_subset_ms)
                .push_back(engine_ms);
            log.all_ms.push_back(ms);
            log.overhead_ms.push_back(ms - engine_ms);
            if (reply.verdict_ok && r.certified) ++log.certified;
            // The engine's position inside the request is not observed,
            // only its length, so its span is laid at the request's end.
            int64_t id = tr->Add("server.request", t0, t1, -1, j);
            tr->Add("server.engine", std::max(t0, t1 - engine_ms / 1e3), t1,
                    id, j);
          }
          log.tally.Record(reply);
        }
      });
    }
    for (auto& t : clients) t.join();
    double elapsed = run.Seconds();
    ClientLog all;
    for (ClientLog& log : logs) {
      auto append = [](std::vector<double>* to, const std::vector<double>& x) {
        to->insert(to->end(), x.begin(), x.end());
      };
      append(&all.subset_ms, log.subset_ms);
      append(&all.full_ms, log.full_ms);
      append(&all.all_ms, log.all_ms);
      append(&all.overhead_ms, log.overhead_ms);
      append(&all.engine_subset_ms, log.engine_subset_ms);
      append(&all.engine_full_ms, log.engine_full_ms);
      all.certified += log.certified;
      all.tally.Merge(log.tally);
    }
    out.tally.Merge(all.tally);
    return std::make_pair(all, elapsed);
  };

  double budget = args.trace ? args.seconds / 2 : args.seconds;
  auto [base, elapsed] = serve(budget, &off);
  auto& v = out.values;
  v["exact_ms"] = Median(base.full_ms);
  v["fast_ms"] = Median(base.subset_ms);
  v["throughput_per_s"] = static_cast<double>(base.all_ms.size()) / elapsed;
  v["quality"] = base.tally.attempted == 0
                     ? 0.0
                     : static_cast<double>(base.certified) /
                           static_cast<double>(base.tally.attempted);

  if (args.trace) {
    auto [tr, tr_elapsed] = serve(budget, tracer);
    (void)tr_elapsed;
    Tail overhead = TailOf(tr.overhead_ms);
    Tail client = TailOf(tr.all_ms);
    v["server.engine_subset_p50_ms"] = Median(tr.engine_subset_ms);
    v["server.engine_full_p50_ms"] = Median(tr.engine_full_ms);
    v["server.overhead_p50_ms"] = Median(tr.overhead_ms);
    v["server.overhead_tail_ms"] = overhead.value;
    v["server.overhead_tail_pct"] = overhead.percentile;
    v["server.client_tail_ms"] = client.value;
    v["server.client_tail_pct"] = client.percentile;
    v["server.samples"] = static_cast<double>(client.samples);
    v["trace.overhead_pct"] =
        100.0 * (Median(tr.all_ms) / Median(base.all_ms) - 1.0);
  }
  egobw::EgoBwServerStats stats = server->Stats();
  v["server.peak_queue_depth"] = static_cast<double>(stats.peak_queue_depth);
  v["server.shed"] =
      static_cast<double>(stats.shed_queue_full + stats.shed_draining);
  v["server.io_failures"] = static_cast<double>(stats.io_failures);
  out.Check(server->Drain(std::chrono::milliseconds(5000)).ok());
  server.reset();
  v["peak_rss_mb"] = PeakRssMb();
  return out;
}

// ----------------------------------------------------------------- main --

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      args->trace = val == "1";
    } else if (key == "--work-dir") {
      args->work_dir = val;
    } else if (key == "--commit") {
      args->commit = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

void PrintNumber(double x) {
  if (!std::isfinite(x)) x = 0.0;
  std::printf("%.17g", x);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--commit ID]\n",
                 argv[0]);
    return 2;
  }
  egobw::SetScanProbeCostRatio(kScanProbeRatio);
  Tracer tracer(args.trace);
  Outcome out;
  if (args.workload == "rmat-batch") {
    out = RunRmatBatch(args, &tracer);
  } else if (args.workload == "update-stream") {
    out = RunUpdateStream(args, &tracer);
  } else if (args.workload == "serve-zipf") {
    out = RunServeZipf(args, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    out.values["trace.spans"] = static_cast<double>(tracer.spans().size());
    std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                       std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }

  PrintMachine(args);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              out.tally.failed == 0 ? "true" : "false", out.tally.attempted,
              out.tally.failed);
  const char* sep = "";
  for (const auto& [name, value] : out.values) {
    std::printf("%s\"%s\": ", sep, name.c_str());
    PrintNumber(value);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
