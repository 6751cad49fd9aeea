// Serving benchmark for the relcomp QueryEngine.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--refs <dir>] [--out <dir>]
//   perfbench --make-references <lastfm_small|biomine_medium> [--refs <dir>]
//
// A run builds the workload's graph and query catalogue, times
// QueryEngine::Create, warms the engine up, and drives it with closed-loop
// client threads that each call RunBatch({q}) and time the call. It then
// checks the answers (bare-estimator replay, value ranges, ordering, the
// engine's outcome partition, error against committed reference answers) and
// prints every metric as the last line of stdout, one JSON object. A failed
// check prints "correct": false and exits 1.
//
// --trace 1 splits the measured time into an untraced and a traced half and
// then times calls into each library layer from this file, recording spans
// (name, start, end, parent, request id) in memory; they are written to
// <out>/trace-<workload>-<seed>.tsv when the run ends. Only per-layer metrics
// are printed then; end-to-end metrics come from --trace 0 runs. See
// NOTES.md for the workloads and what each metric is expected to move.

#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "common/format.h"
#include "common/rng.h"
#include "engine/query_engine.h"
#include "engine/result_cache.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "reliability/bfs_sharing.h"
#include "reliability/estimator_factory.h"
#include "reliability/top_k.h"
#include "reliability/workload.h"
#include "span_trace.h"

namespace perfbench {
namespace {

using namespace relcomp;
namespace fs = std::filesystem;

// Fixed inputs. The --seed argument only chooses the query stream; the graph,
// the catalogue and the engine's master seed never change, so an engine
// answer for a given query is the same in every run.
constexpr uint64_t kDatasetSeed = 42;
constexpr uint64_t kCatalogueSeed = 0xCA7A106;
constexpr uint64_t kEngineSeed = 0xE9619E;
constexpr uint64_t kReferenceSeed = 0x5EFE2E9CE;  // disjoint from the engine's
constexpr uint32_t kSamples = 1000;               // K, the paper default
constexpr size_t kWorkers = 4;                    // engine worker threads
constexpr size_t kProbeThreads = 4;               // replay / probe threads

// Mixed workload: a catalogue of {st, top-k, reliable-set, distance} over the
// first kMixedPairs catalogue pairs, drawn Zipf(kZipfExponent).
constexpr uint32_t kMixedPairs = 2000;
constexpr uint32_t kTopK = 10;
constexpr double kEta = 0.2;
constexpr uint32_t kMaxHops = 4;
constexpr double kZipfExponent = 1.0;
constexpr uint64_t kPrefixQueries = 40000;
// The mixed workload's engine holds 6,000 results and 1,000 sweeps (LastFM
// small has 2,500 nodes), less than its working set of 8,000 queries over
// 2,000 sources, so it misses at a steady rate once warm.
constexpr size_t kMixedCacheEntries = 6000;
constexpr size_t kMixedSweepBytes = 1000 * 2500 * sizeof(double);
constexpr double kWarmupSeconds = 1.5;
// Request spans a traced half records at most, about (requests are sampled).
constexpr double kMaxRequestSpans = 200000;

// Sweep references keep the kSweepTop most reliable targets of each source; a
// top-k target missing from a stored row is scored against the row's smallest
// stored value, an upper bound on its reference.
constexpr size_t kSweepTop = 64;

struct ReferenceSetSpec {
  const char* name;
  DatasetId dataset;
  Scale scale;
  uint32_t catalogue_pairs;   ///< distinct hop-2 pairs in the catalogue
  uint32_t reference_pairs;   ///< leading pairs that carry references
  uint32_t reference_samples; ///< MC budget of the reference answers
  bool sweeps_and_distance;   ///< also store sweep and distance references
};

const ReferenceSetSpec kReferenceSets[] = {
    {"lastfm_small", DatasetId::kLastFm, Scale::kSmall, 10000, 64, 100000,
     true},
    {"biomine_medium", DatasetId::kBioMine, Scale::kMedium, 20000, 128, 20000,
     false},
};

struct WorkloadSpec {
  const char* name;
  const char* reference_set;
  EstimatorKind kind;
  uint32_t num_strata;
  size_t clients;
  bool mixed_restart;    ///< Zipf mix served by an engine restarted from disk
  int setup_repeats;     ///< Create is timed this many times; median reported
  size_t replay_sample;  ///< audit answers replayed in an untraced run
};

const WorkloadSpec kWorkloads[] = {
    {"st_bfs_sharing", "lastfm_small", EstimatorKind::kBfsSharing, 1, 4, false,
     5, 16},
    {"mixed_zipf_restart", "lastfm_small", EstimatorKind::kMonteCarlo, 4, 2,
     true, 5, 256},
    {"st_distinct_mc", "biomine_medium", EstimatorKind::kMonteCarlo, 1, 4,
     false, 9, 64},
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return result.MoveValue();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// Mean after dropping the lowest and highest fifth of the values.
double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 5;
  return std::accumulate(values.begin() + cut, values.end() - cut, 0.0) /
         static_cast<double>(values.size() - 2 * cut);
}

double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// ----------------------------------------------------------------- inputs --

struct Catalogue {
  const ReferenceSetSpec* spec = nullptr;
  Dataset dataset;
  std::vector<ReliabilityQuery> pairs;
};

const ReferenceSetSpec& FindReferenceSet(const std::string& name) {
  for (const ReferenceSetSpec& spec : kReferenceSets) {
    if (name == spec.name) return spec;
  }
  Die("unknown reference set " + name);
}

Catalogue LoadCatalogue(const ReferenceSetSpec& spec) {
  Catalogue c;
  c.spec = &spec;
  c.dataset = Unwrap(MakeDataset(spec.dataset, spec.scale, kDatasetSeed),
                     "MakeDataset");
  QueryGenOptions gen;
  gen.num_pairs = spec.catalogue_pairs;
  gen.hop_distance = 2;
  gen.seed = kCatalogueSeed;
  gen.max_attempts = spec.catalogue_pairs * 20;
  c.pairs = Unwrap(GenerateQueries(c.dataset.graph, gen), "GenerateQueries");
  if (c.pairs.size() < spec.catalogue_pairs) {
    Die("catalogue came out short");
  }
  return c;
}

/// The query stream of one workload. Items are the distinct queries the
/// stream indexes into; `audit` items (those with reference answers) open the
/// measured stream in every run; the rest of the stream depends on the seed.
class Workload {
 public:
  Workload(const WorkloadSpec& spec, const Catalogue& catalogue, uint64_t seed)
      : seed_(seed) {
    Rng rng(HashCombineSeed(seed, 0x57EA));
    const uint32_t refs = catalogue.spec->reference_pairs;
    if (!spec.mixed_restart) {
      for (const ReliabilityQuery& p : catalogue.pairs) {
        items_.push_back(EngineQuery::St(p.source, p.target));
      }
      for (uint32_t i = 0; i < refs; ++i) audit_.push_back(i);
      for (uint32_t i = refs; i < items_.size(); ++i) body_.push_back(i);
      Shuffle(body_, rng);
    } else {
      for (uint32_t p = 0; p < kMixedPairs; ++p) {
        const ReliabilityQuery& q = catalogue.pairs[p];
        items_.push_back(EngineQuery::St(q.source, q.target));
        items_.push_back(EngineQuery::TopK(q.source, kTopK));
        items_.push_back(EngineQuery::ReliableSet(q.source, kEta));
        items_.push_back(EngineQuery::Distance(q.source, q.target, kMaxHops));
        if (p < refs) {
          for (uint32_t k = 0; k < 4; ++k) audit_.push_back(4 * p + k);
        }
      }
      // Zipf ranks over a seed-chosen permutation of the items.
      zipf_item_.resize(items_.size());
      std::iota(zipf_item_.begin(), zipf_item_.end(), 0u);
      Shuffle(zipf_item_, rng);
      double total = 0.0;
      for (size_t r = 0; r < items_.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        zipf_cdf_.push_back(total);
      }
      for (double& c : zipf_cdf_) c /= total;
    }
    Shuffle(audit_, rng);
  }

  const std::vector<EngineQuery>& items() const { return items_; }
  const std::vector<uint32_t>& audit() const { return audit_; }

  /// j-th item of the measured stream after the audit items.
  uint32_t Forward(uint64_t j) const {
    if (zipf_cdf_.empty()) return body_[j % body_.size()];
    return Zipf(3, j);
  }
  /// j-th warm-up item: for distinct-pair workloads, taken from the far end
  /// of the stream so warm-up never pre-answers a measured query.
  uint32_t Warm(uint64_t j) const {
    if (zipf_cdf_.empty()) return body_[body_.size() - 1 - j % body_.size()];
    return Zipf(2, j);
  }
  /// j-th item of the prefix replayed before the restart (mixed only).
  uint32_t Prefix(uint64_t j) const { return Zipf(1, j); }

 private:
  template <typename T>
  static void Shuffle(std::vector<T>& v, Rng& rng) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.UniformInt(i)]);
    }
  }

  uint32_t Zipf(uint64_t salt, uint64_t j) const {
    uint64_t state = HashCombineSeed(HashCombineSeed(seed_, salt), j);
    const double u = ToUnit(SplitMix64(state));
    const size_t rank = static_cast<size_t>(
        std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    return zipf_item_[std::min(rank, zipf_item_.size() - 1)];
  }

  uint64_t seed_;
  std::vector<EngineQuery> items_;
  std::vector<uint32_t> audit_;
  std::vector<uint32_t> body_;
  std::vector<double> zipf_cdf_;
  std::vector<uint32_t> zipf_item_;
};

// ------------------------------------------------------------- references --

struct References {
  std::map<std::pair<NodeId, NodeId>, double> st;
  std::map<std::pair<NodeId, NodeId>, double> distance;
  std::unordered_map<NodeId, std::unordered_map<NodeId, double>> sweep;
};

std::string ReferencePath(const std::string& dir, const std::string& set) {
  return dir + "/" + set + ".txt";
}

References LoadReferences(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read reference answers " + path);
  References refs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag;
    NodeId s = 0;
    NodeId t = 0;
    fields >> tag >> s;
    if (tag == "st") {
      double v = 0;
      fields >> t >> v;
      refs.st[{s, t}] = v;
    } else if (tag == "distance") {
      uint32_t hops = 0;
      double v = 0;
      fields >> t >> hops >> v;
      refs.distance[{s, t}] = v;
    } else if (tag == "sweep") {
      size_t n = 0;
      fields >> n;
      auto& row = refs.sweep[s];
      for (size_t i = 0; i < n; ++i) {
        NodeId node = 0;
        double v = 0;
        fields >> node >> v;
        row[node] = v;
      }
    }
    if (!fields) Die("malformed reference line: " + line);
  }
  return refs;
}

/// Runs fn(thread, index, lane) over [0, n) on kProbeThreads threads; each
/// index is claimed once. Stops claiming once `budget_s` has passed and at
/// least `min_items` were claimed (budget_s <= 0: no time limit).
void ParallelFor(size_t n, double budget_s, size_t min_items, SpanLog* log,
                 const std::function<void(size_t, size_t, SpanLog::Lane*)>& fn) {
  const size_t threads = kProbeThreads;
  std::atomic<size_t> next{0};
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(std::max(0.0, budget_s) * 1e9);
  std::vector<SpanLog::Lane*> lanes(threads, nullptr);
  if (log != nullptr) {
    for (auto& lane : lanes) lane = log->NewLane();
  }
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (true) {
        if (budget_s > 0 && NowNs() >= deadline &&
            next.load(std::memory_order_relaxed) >= min_items) {
          return;
        }
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        fn(t, i, lanes[t]);
      }
    });
  }
  for (auto& th : pool) th.join();
}

/// Writes `set`'s reference answers: plain MC at the set's large budget under
/// kReferenceSeed, for the catalogue's leading reference pairs.
int MakeReferences(const std::string& set, const std::string& dir) {
  const ReferenceSetSpec& spec = FindReferenceSet(set);
  const Catalogue cat = LoadCatalogue(spec);
  const UncertainGraph& graph = cat.dataset.graph;
  const uint32_t n = spec.reference_pairs;
  std::vector<std::string> lines(n);
  auto replicas = Unwrap(
      MakeEstimatorReplicas(EstimatorKind::kMonteCarlo, graph, kProbeThreads),
      "MakeEstimatorReplicas");
  const uint64_t start = NowNs();
  ParallelFor(n, 0, 0, nullptr,
              [&](size_t t, size_t i, SpanLog::Lane*) {
    Estimator& mc = *replicas[t];
    const ReliabilityQuery& q = cat.pairs[i];
    EstimateOptions opts;
    opts.num_samples = spec.reference_samples;
    opts.seed = HashCombineSeed(kReferenceSeed, i);
    std::string out;
    const double st = Unwrap(mc.Estimate(q, opts), "Estimate").reliability;
    out += StrFormat("st %u %u %.9g\n", q.source, q.target, st);
    if (spec.sweeps_and_distance) {
      opts.seed = HashCombineSeed(kReferenceSeed ^ 0xD157, i);
      const double d = Unwrap(mc.EstimateDistanceConstrained(q, kMaxHops, opts),
                              "EstimateDistanceConstrained");
      out += StrFormat("distance %u %u %u %.9g\n", q.source, q.target,
                       kMaxHops, d);
      opts.seed = HashCombineSeed(kReferenceSeed ^ 0x5EE9, i);
      const std::vector<double> sweep =
          Unwrap(mc.EstimateFromSource(q.source, opts), "EstimateFromSource");
      const std::vector<ReliableTarget> top =
          RankTopKTargets(sweep, q.source, kSweepTop);
      out += StrFormat("sweep %u %zu", q.source, top.size());
      for (const ReliableTarget& t : top) {
        out += StrFormat(" %u %.9g", t.node, t.reliability);
      }
      out += "\n";
    }
    lines[i] = out;
  });
  fs::create_directories(dir);
  const std::string path = ReferencePath(dir, set);
  std::ofstream f(path);
  f << "# Reference answers for perfbench (" << set << ").\n"
    << "# Plain Monte Carlo, K = " << spec.reference_samples
    << ", seeds derived from " << StrFormat("0x%llx", static_cast<unsigned long long>(kReferenceSeed))
    << " (disjoint from the engine's), for the first " << n
    << " catalogue pairs of " << DatasetName(spec.dataset) << " "
    << ScaleName(spec.scale) << ".\n"
    << "# Sweep rows keep the " << kSweepTop
    << " most reliable targets of each source.\n"
    << "# Regenerate: python3 perfbench/run.py --make-references " << set
    << "\n";
  for (const std::string& l : lines) f << l;
  f.close();
  if (!f) Die("cannot write " + path);
  std::fprintf(stderr, "wrote %s (%u pairs, %.1f s)\n", path.c_str(), n,
               static_cast<double>(NowNs() - start) / 1e9);
  return 0;
}

// ---------------------------------------------------------------- serving --

EngineOptions MakeEngineOptions(const WorkloadSpec& spec,
                                const std::string& persist_dir) {
  EngineOptions o;
  o.num_threads = kWorkers;
  o.kind = spec.kind;
  o.num_samples = kSamples;
  o.num_strata = spec.num_strata;
  o.seed = kEngineSeed;
  o.persist_dir = persist_dir;
  if (spec.mixed_restart) {
    o.cache_capacity = kMixedCacheEntries;
    o.sweep_cache_max_bytes = kMixedSweepBytes;
  }
  return o;
}

/// Value-range and ordering checks every answer must pass.
bool Plausible(const EngineQuery& q, const EngineResult& r) {
  auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!IsSweepWorkload(q.workload)) return in_unit(r.reliability);
  if (q.workload == WorkloadKind::kTopK && r.targets.size() > q.k) return false;
  for (size_t i = 0; i < r.targets.size(); ++i) {
    const ReliableTarget& t = r.targets[i];
    if (!in_unit(t.reliability) || t.node == q.source) return false;
    if (q.workload == WorkloadKind::kReliableSet && t.reliability < q.eta) {
      return false;
    }
    if (i > 0) {
      const ReliableTarget& p = r.targets[i - 1];
      if (p.reliability < t.reliability ||
          (p.reliability == t.reliability && p.node >= t.node)) {
        return false;
      }
    }
  }
  return true;
}

/// Latency histogram with 512 sub-buckets per power of two of nanoseconds
/// (0.2% resolution, up to 2^48 ns) and fixed memory, so the harness's own
/// footprint does not grow with throughput and skew peak_rss_mb. Failed
/// queries are kept apart and rank above every latency.
class LatencyHistogram {
 public:
  void Add(uint64_t ns) { ++counts_[Index(ns)]; }
  void AddFailed() { ++failed_; }
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    failed_ += other.failed_;
  }
  uint64_t total() const {
    return std::accumulate(counts_.begin(), counts_.end(), failed_);
  }
  uint64_t failed() const { return failed_; }
  /// Nearest-rank percentile in ms (bucket midpoint; +inf for a failure).
  double PercentileMs(double q) const {
    const uint64_t n = total();
    if (n == 0) return 0.0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))));
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return Midpoint(i) / 1e6;
    }
    return std::numeric_limits<double>::infinity();
  }

 private:
  static constexpr int kSubBits = 9;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kGroups = 48 - kSubBits + 1;

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int shift = (63 - __builtin_clzll(v)) - kSubBits;
    const size_t group = std::min<size_t>(kGroups - 1, shift + 1);
    if (group != static_cast<size_t>(shift + 1)) return kGroups * kSub - 1;
    return group * kSub + static_cast<size_t>((v >> shift) - kSub);
  }
  static double Midpoint(size_t i) {
    const uint64_t group = i / kSub;
    if (group == 0) return static_cast<double>(i);
    const int shift = static_cast<int>(group) - 1;
    const uint64_t lower = (kSub + i % kSub) << shift;
    return static_cast<double>(lower) +
           static_cast<double>(uint64_t{1} << shift) / 2.0;
  }

  std::vector<uint32_t> counts_ = std::vector<uint32_t>(kGroups * kSub, 0);
  uint64_t failed_ = 0;
};

/// The timed phase is cut into this many equal windows by completion time.
/// Throughput and the median latency are trimmed means over the windows
/// (the two lowest and two highest dropped), so a burst of interference from
/// outside the process moves them little.
constexpr size_t kWindows = 10;

struct PhaseResult {
  double elapsed_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t implausible = 0;
  uint64_t hits = 0;
  uint64_t forward_used = 0;  ///< stream items taken after the audit items
  std::vector<LatencyHistogram> windows =
      std::vector<LatencyHistogram>(kWindows);
  std::vector<double> window_s = std::vector<double>(kWindows, 0.0);
  LatencyHistogram latency;  ///< every window pooled
  std::vector<EngineResult> audit_results;
  std::vector<double> audit_latency_ms;

  uint64_t completed() const { return attempted - failed; }
  /// Trimmed mean over the windows of completed queries per second.
  double qps() const {
    std::vector<double> rates;
    for (size_t w = 0; w < kWindows; ++w) {
      if (window_s[w] <= 0) continue;
      rates.push_back(static_cast<double>(windows[w].total() -
                                          windows[w].failed()) /
                      window_s[w]);
    }
    return TrimmedMean(rates);
  }
  /// Trimmed mean over the windows of each window's latency percentile `q`.
  double WindowedPercentileMs(double q) const {
    std::vector<double> values;
    for (const LatencyHistogram& h : windows) {
      if (h.total() > 0) values.push_back(h.PercentileMs(q));
    }
    return TrimmedMean(values);
  }
};

/// Closed loop: `clients` threads each send the next stream query only when
/// their previous RunBatch returned. The phase ends when `seconds` passed and
/// every audit item was sent (audit may be null). With a span log, one
/// request in `trace_every` is traced.
PhaseResult RunPhase(QueryEngine& engine, const Workload& w, size_t clients,
                     double seconds, const std::vector<uint32_t>* audit,
                     const std::function<uint32_t(uint64_t)>& body,
                     SpanLog* log, uint64_t trace_every,
                     uint64_t request_base) {
  const size_t num_audit = audit == nullptr ? 0 : audit->size();
  PhaseResult out;
  out.audit_results.resize(num_audit);
  out.audit_latency_ms.resize(num_audit, 0.0);
  std::atomic<uint64_t> next{0};
  struct alignas(64) ClientLog {
    std::vector<LatencyHistogram> windows =
        std::vector<LatencyHistogram>(kWindows);
    uint64_t failed = 0;
    uint64_t implausible = 0;
    uint64_t hits = 0;
    uint64_t end_ns = 0;
    SpanLog::Lane* lane = nullptr;
  };
  std::vector<ClientLog> logs(clients);
  if (log != nullptr) {
    for (ClientLog& c : logs) c.lane = log->NewLane();
  }
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t window_ns =
      std::max<uint64_t>(1, (deadline - start) / kWindows);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& me = logs[c];
      while (true) {
        if (NowNs() >= deadline && next.load() >= num_audit) break;
        const uint64_t idx = next.fetch_add(1);
        const uint32_t item =
            idx < num_audit ? (*audit)[idx] : body(idx - num_audit);
        const EngineQuery& q = w.items()[item];
        const uint64_t t0 = NowNs();
        Result<std::vector<EngineResult>> res = [&] {
          SpanLog::Scope span(idx % trace_every == 0 ? me.lane : nullptr,
                              "engine.QueryEngine.RunBatch", -1,
                              request_base + idx);
          return engine.RunBatch(std::vector<EngineQuery>{q});
        }();
        const uint64_t t1 = NowNs();
        const uint64_t ns = t1 - t0;
        LatencyHistogram& window = me.windows[std::min<size_t>(
            kWindows - 1, (t1 - start) / window_ns)];
        const bool ok = res.ok() && res->size() == 1 && (*res)[0].ok();
        if (!ok) {
          ++me.failed;
          window.AddFailed();
          continue;
        }
        EngineResult& r = (*res)[0];
        window.Add(ns);
        if (r.cache_hit) ++me.hits;
        if (!Plausible(q, r)) ++me.implausible;
        if (idx < num_audit) {
          out.audit_latency_ms[idx] = static_cast<double>(ns) / 1e6;
          out.audit_results[idx] = std::move(r);
        }
      }
      me.end_ns = NowNs();
    });
  }
  uint64_t end = start;
  for (auto& t : threads) t.join();
  for (const ClientLog& c : logs) {
    end = std::max(end, c.end_ns);
    out.failed += c.failed;
    out.implausible += c.implausible;
    out.hits += c.hits;
    for (size_t w = 0; w < kWindows; ++w) {
      out.windows[w].Merge(c.windows[w]);
      out.latency.Merge(c.windows[w]);
    }
  }
  out.attempted = out.latency.total();
  out.forward_used = next.load() > num_audit ? next.load() - num_audit : 0;
  out.elapsed_s = static_cast<double>(end - start) / 1e9;
  // The last window also holds completions after the deadline (clients
  // finishing their query, audit items still to send).
  for (size_t w = 0; w < kWindows; ++w) {
    out.window_s[w] = static_cast<double>(window_ns) / 1e9;
  }
  out.window_s[kWindows - 1] =
      std::max(out.window_s[kWindows - 1],
               out.elapsed_s - static_cast<double>(window_ns * (kWindows - 1)) / 1e9);
  return out;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameAnswer(const EngineResult& engine, const WorkloadResult& bare) {
  if (!SameBits(engine.reliability, bare.reliability)) return false;
  if (engine.targets.size() != bare.targets.size()) return false;
  for (size_t i = 0; i < bare.targets.size(); ++i) {
    if (engine.targets[i].node != bare.targets[i].node ||
        !SameBits(engine.targets[i].reliability, bare.targets[i].reliability)) {
      return false;
    }
  }
  return true;
}

const char* BareSpanName(EstimatorKind kind, WorkloadKind workload) {
  const bool bfs = kind == EstimatorKind::kBfsSharing;
  switch (workload) {
    case WorkloadKind::kSt:
      return bfs ? "reliability.BfsSharing.Estimate"
                 : "reliability.MonteCarlo.Estimate";
    case WorkloadKind::kDistance:
      return "reliability.MonteCarlo.EstimateDistanceConstrained";
    default:
      return bfs ? "reliability.BfsSharing.EstimateFromSource"
                 : "reliability.MonteCarlo.EstimateFromSource";
  }
}

const char* PrepareSpanName(EstimatorKind kind) {
  return kind == EstimatorKind::kBfsSharing
             ? "reliability.BfsSharing.PrepareForNextQuery"
             : "reliability.MonteCarlo.PrepareForNextQuery";
}

struct ReplayResult {
  size_t replayed = 0;
  size_t mismatches = 0;
  std::vector<double> bare_ms;  ///< prepare + estimate, per replayed item
};

/// Re-answers the first `count` audit queries on bare estimator replicas with
/// the engine's plan and seeds and requires bit-identical answers.
ReplayResult Replay(const QueryEngine& engine, const UncertainGraph& graph,
                    const std::vector<EngineQuery>& queries,
                    const std::vector<EngineResult>& answers, size_t count,
                    SpanLog* log) {
  ReplayResult out;
  count = std::min(count, queries.size());
  out.bare_ms.assign(count, 0.0);
  const EstimatorKind kind = engine.options().kind;
  auto replicas = Unwrap(MakeEstimatorReplicas(kind, graph, kProbeThreads,
                                               engine.options().factory),
                         "MakeEstimatorReplicas");
  std::atomic<size_t> mismatches{0};
  ParallelFor(count, 0, 0, log,
              [&](size_t t, size_t i, SpanLog::Lane* lane) {
    const EngineQuery& q = queries[i];
    const QueryPlan plan = engine.PlanFor(q);
    Estimator& bare = *replicas[t];
    // Audit query i is request i of the measured stream.
    SpanLog::Scope root(lane, "replay.request", -1, i);
    const uint64_t t0 = NowNs();
    {
      SpanLog::Scope s(lane, PrepareSpanName(kind), root.id(), i);
      Check(bare.PrepareForNextQuery(engine.PrepareSeed(q)),
            "PrepareForNextQuery");
    }
    EstimateOptions opts;
    opts.num_samples = plan.num_samples;
    opts.seed = engine.QuerySeed(q);
    opts.num_strata = plan.num_strata;
    Result<WorkloadResult> bare_answer = [&] {
      SpanLog::Scope s(lane, BareSpanName(kind, q.workload), root.id(), i);
      return DispatchWorkload(bare, q, opts);
    }();
    out.bare_ms[i] = static_cast<double>(NowNs() - t0) / 1e6;
    if (!bare_answer.ok() || !answers[i].ok() ||
        !SameAnswer(answers[i], *bare_answer)) {
      mismatches.fetch_add(1);
    }
  });
  out.replayed = count;
  out.mismatches = mismatches.load();
  return out;
}

/// Mean |answer - reference| over scalar answers and top-k target values.
double AbsErrMean(const std::vector<EngineQuery>& queries,
                  const std::vector<EngineResult>& answers,
                  const References& refs, size_t* scored, size_t* missing) {
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const EngineQuery& q = queries[i];
    const EngineResult& r = answers[i];
    if (!r.ok()) continue;
    if (q.workload == WorkloadKind::kSt ||
        q.workload == WorkloadKind::kDistance) {
      const auto& table =
          q.workload == WorkloadKind::kSt ? refs.st : refs.distance;
      auto it = table.find({q.source, q.target});
      if (it == table.end()) {
        ++*missing;
        continue;
      }
      sum += std::fabs(r.reliability - it->second);
      ++n;
    } else if (q.workload == WorkloadKind::kTopK) {
      auto row = refs.sweep.find(q.source);
      if (row == refs.sweep.end()) {
        ++*missing;
        continue;
      }
      double floor = 1.0;
      for (const auto& [node, v] : row->second) floor = std::min(floor, v);
      for (const ReliableTarget& t : r.targets) {
        auto v = row->second.find(t.node);
        sum += std::fabs(t.reliability -
                         (v == row->second.end() ? floor : v->second));
        ++n;
      }
    }
  }
  *scored = n;
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

size_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --------------------------------------------------------- layer probes --

/// Percentile `q` of the durations of the spans called `name`, in ns divided
/// by `per` (the operations one span covers, or a unit).
double SpanStat(const SpanLog& log, const char* name, double per,
                double q = 0.5) {
  return Percentile(log.Durations(name), q) / per;
}

/// Keeps the compiler from dropping a computation whose result is unused.
template <typename T>
void KeepAlive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Rng::Bernoulli at the graph's edge probabilities; ns per draw.
double ProbeBernoulli(const UncertainGraph& graph, const SpanLog& log,
                      SpanLog::Lane* lane) {
  const size_t m = std::max<size_t>(1, graph.num_edges());
  const size_t passes = std::max<size_t>(1, (size_t{2} << 20) / m);
  Rng rng(0xBE7);
  SpanLog::Scope probe(lane, "probe.common");
  for (int rep = 0; rep < 7; ++rep) {
    SpanLog::Scope s(lane, "common.Rng.Bernoulli[batch]", probe.id());
    uint64_t live = 0;
    for (size_t p = 0; p < passes; ++p) {
      for (EdgeId e = 0; e < m; ++e) live += rng.Bernoulli(graph.prob(e));
    }
    KeepAlive(live);
  }
  return SpanStat(log, "common.Rng.Bernoulli[batch]",
                  static_cast<double>(passes * m));
}

/// Full OutEdges scan of every node; ns per adjacency entry.
double ProbeOutEdges(const UncertainGraph& graph, const SpanLog& log,
                     SpanLog::Lane* lane) {
  const size_t m = std::max<size_t>(1, graph.num_edges());
  const size_t passes = std::max<size_t>(1, (size_t{4} << 20) / m);
  SpanLog::Scope probe(lane, "probe.graph");
  for (int rep = 0; rep < 7; ++rep) {
    SpanLog::Scope s(lane, "graph.UncertainGraph.OutEdges[scan]", probe.id());
    double sum = 0.0;
    for (size_t p = 0; p < passes; ++p) {
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        for (const AdjEntry& a : graph.OutEdges(v)) {
          sum += a.prob + static_cast<double>(a.neighbor);
        }
      }
    }
    KeepAlive(sum);
  }
  return SpanStat(log, "graph.UncertainGraph.OutEdges[scan]",
                  static_cast<double>(passes * m));
}

class Run {
 public:
  Run(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace,
      const std::string& refs_dir, const std::string& out_dir)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        catalogue_(LoadCatalogue(FindReferenceSet(spec.reference_set))),
        workload_(spec, catalogue_, seed),
        refs_(LoadReferences(ReferencePath(refs_dir, spec.reference_set))),
        out_dir_(out_dir),
        work_dir_(out_dir + "/run-" + std::to_string(getpid())) {
    fs::remove_all(work_dir_);
    fs::create_directories(work_dir_);
  }

  ~Run() {
    std::error_code ec;
    fs::remove_all(work_dir_, ec);
  }

  int Execute();

 private:
  const UncertainGraph& graph() const { return catalogue_.dataset.graph; }

  /// Mixed workload: serves the stream's prefix on an engine persisting into
  /// a fresh directory, which later restarts copy.
  void PreparePersistDir();
  std::string FreshPersistDir(int n);
  void Setup();
  /// The traced run's per-layer metrics, timed from spans around calls into
  /// each layer (see NOTES.md for what each should move).
  std::vector<Metric> ProbeLayers(const PhaseResult& untraced,
                                  const PhaseResult& traced,
                                  const EngineStatsSnapshot& before_traced,
                                  const ReplayResult& replay);
  void ProbeEstimators(SpanLog::Lane* lane, std::vector<Metric>* m);
  void ProbeCache(SpanLog::Lane* lane, std::vector<Metric>* m);
  void ProbePersist(SpanLog::Lane* lane, std::vector<Metric>* m);

  const WorkloadSpec& spec_;
  uint64_t seed_;
  double seconds_;
  bool trace_;
  Catalogue catalogue_;
  Workload workload_;
  References refs_;
  std::string out_dir_;
  std::string work_dir_;
  std::string prefix_dir_;
  uint64_t prefix_journal_bytes_ = 0;
  std::vector<double> setup_s_;
  std::unique_ptr<QueryEngine> engine_;
  SpanLog log_;
  std::vector<std::string> failures_;
};

void Run::PreparePersistDir() {
  prefix_dir_ = work_dir_ + "/prefix";
  auto engine = Unwrap(
      QueryEngine::Create(graph(), MakeEngineOptions(spec_, prefix_dir_)),
      "QueryEngine::Create (prefix)");
  std::vector<EngineQuery> batch;
  for (uint64_t j = 0; j < kPrefixQueries; ++j) {
    batch.push_back(workload_.items()[workload_.Prefix(j)]);
    if (batch.size() == 1024 || j + 1 == kPrefixQueries) {
      auto results = Unwrap(engine->RunBatch(batch), "RunBatch (prefix)");
      for (const EngineResult& r : results) {
        if (!r.ok()) Die("prefix query failed: " + r.status.ToString());
      }
      batch.clear();
    }
  }
  Check(engine->FlushWarmState(), "FlushWarmState (prefix)");
  const std::string journal = engine->persist_store()->journal_path();
  engine.reset();  // final flush; the directory is now what a crash leaves
  prefix_journal_bytes_ = fs::file_size(journal);
}

std::string Run::FreshPersistDir(int n) {
  const std::string dir = work_dir_ + "/restart-" + std::to_string(n);
  fs::remove_all(dir);
  fs::copy(prefix_dir_, dir, fs::copy_options::recursive);
  return dir;
}

/// Times one QueryEngine::Create in a forked child, which then exits without
/// tearing the engine down. Repeats thus leave nothing behind in the serving
/// process (heap growth, warm caches) that would skew peak_rss_mb. Must be
/// called while this process runs no other thread.
double TimeCreateInChild(const UncertainGraph& graph,
                         const EngineOptions& options) {
  int fds[2];
  if (pipe(fds) != 0) Die("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const uint64_t t0 = NowNs();
    auto engine = QueryEngine::Create(graph, options);
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    const bool ok = engine.ok() &&
                    write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const ssize_t got = read(fds[0], &seconds, sizeof seconds);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof seconds || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Die("QueryEngine::Create failed in the set-up child");
  }
  return seconds;
}

void Run::Setup() {
  if (spec_.mixed_restart) PreparePersistDir();
  for (int r = 0; r + 1 < spec_.setup_repeats; ++r) {
    const std::string dir = spec_.mixed_restart ? FreshPersistDir(r) : "";
    setup_s_.push_back(
        TimeCreateInChild(graph(), MakeEngineOptions(spec_, dir)));
  }
  // The serving engine's own Create is the last sample.
  const std::string dir =
      spec_.mixed_restart ? FreshPersistDir(spec_.setup_repeats) : "";
  const uint64_t t0 = NowNs();
  auto engine = QueryEngine::Create(graph(), MakeEngineOptions(spec_, dir));
  setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  engine_ = Unwrap(std::move(engine), "QueryEngine::Create");
  if (spec_.mixed_restart) {
    const auto& report = engine_->warm_restore_report();
    if (report.result_entries + report.sweep_entries == 0) {
      failures_.push_back("restart restored no warm state");
    }
  }
}

std::vector<Metric> Run::ProbeLayers(const PhaseResult& untraced,
                                     const PhaseResult& traced,
                                     const EngineStatsSnapshot& before,
                                     const ReplayResult& replay) {
  SpanLog::Lane* lane = log_.NewLane();
  std::vector<Metric> m;
  m.push_back({"common.bernoulli_ns", ProbeBernoulli(graph(), log_, lane), "ns"});
  m.push_back({"graph.out_edges_ns_per_edge",
               ProbeOutEdges(graph(), log_, lane), "ns"});
  ProbeEstimators(lane, &m);

  // Engine overhead: client-observed latency minus bare compute for the same
  // audit query and seed, over audit queries the engine computed itself.
  std::vector<double> overhead_us;
  for (size_t i = 0; i < replay.replayed; ++i) {
    const EngineResult& r = untraced.audit_results[i];
    if (r.ok() && !r.cache_hit && !r.coalesced &&
        !IsSweepWorkload(r.query.workload)) {
      overhead_us.push_back(
          (untraced.audit_latency_ms[i] - replay.bare_ms[i]) * 1e3);
    }
  }
  m.push_back({"engine.overhead_us", Median(overhead_us), "us"});
  ProbeCache(lane, &m);

  // Shares over the traced half, from the engine's own counters.
  const EngineStatsSnapshot after = engine_->StatsSnapshot();
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  auto sweep_queries = [](const EngineStatsSnapshot& s) {
    return s.queries_of(WorkloadKind::kTopK) +
           s.queries_of(WorkloadKind::kReliableSet);
  };
  m.push_back({"engine.hit_share", ratio(traced.hits, traced.completed()),
               "ratio"});
  m.push_back({"engine.sweeps_per_sweep_query",
               ratio(after.sweep_executed - before.sweep_executed,
                     sweep_queries(after) - sweep_queries(before)),
               "ratio"});
  m.push_back({"engine.prebuilt_share",
               ratio(after.prebuilt_used - before.prebuilt_used,
                     after.executed - before.executed),
               "ratio"});

  ProbePersist(lane, &m);
  {
    SpanLog::Scope probe(lane, "probe.obs");
    for (int rep = 0; rep < 9; ++rep) {
      SpanLog::Scope s(lane, "obs.MetricsRegistry.ExportJson", probe.id());
      if (engine_->metrics().ExportJson().empty()) {
        failures_.push_back("metrics export is empty");
      }
    }
  }
  m.push_back({"obs.export_json_us",
               SpanStat(log_, "obs.MetricsRegistry.ExportJson", 1e3), "us"});
  m.push_back({"trace.overhead_ratio",
               untraced.qps() > 0 ? traced.qps() / untraced.qps() : 0.0,
               "ratio"});
  return m;
}

void Run::ProbeEstimators(SpanLog::Lane* lane, std::vector<Metric>* m) {
  const EngineOptions& options = engine_->options();
  // The audit pairs as s-t queries are the inputs of the estimator probes.
  std::vector<EngineQuery> pairs;
  for (uint32_t item : workload_.audit()) {
    const EngineQuery& q = workload_.items()[item];
    if (q.workload == WorkloadKind::kSt) pairs.push_back(q);
  }

  // BFS Sharing: index build, then prepare + estimate with engine seeds (on
  // st_bfs_sharing the bare replay already recorded those two).
  {
    SpanLog::Scope probe(lane, "probe.reliability.bfs_index");
    const uint64_t begin = NowNs();
    for (int rep = 0; rep < 3 && NowNs() - begin < 1'500'000'000ull; ++rep) {
      SpanLog::Scope s(lane, "reliability.BfsSharingIndex.Build", probe.id());
      Unwrap(BfsSharingIndex::Build(graph(), options.factory.bfs_sharing,
                                    options.factory.index_seed + rep),
             "BfsSharingIndex::Build");
    }
  }
  if (spec_.kind != EstimatorKind::kBfsSharing) {
    auto bfs = Unwrap(MakeEstimatorReplicas(EstimatorKind::kBfsSharing,
                                            graph(), kProbeThreads,
                                            options.factory),
                      "MakeEstimatorReplicas (bfs)");
    ParallelFor(pairs.size(), 1.0, kProbeThreads, &log_,
                [&](size_t t, size_t i, SpanLog::Lane* l) {
      const EngineQuery& q = pairs[i];
      SpanLog::Scope root(l, "probe.reliability.bfs_query", -1, i);
      {
        SpanLog::Scope s(l, PrepareSpanName(EstimatorKind::kBfsSharing),
                         root.id(), i);
        Check(bfs[t]->PrepareForNextQuery(engine_->PrepareSeed(q)),
              "PrepareForNextQuery");
      }
      EstimateOptions opts;
      opts.num_samples = kSamples;
      opts.seed = engine_->QuerySeed(q);
      SpanLog::Scope s(l, BareSpanName(EstimatorKind::kBfsSharing, q.workload),
                       root.id(), i);
      Unwrap(bfs[t]->Estimate(q.AsSt(), opts), "Estimate (bfs)");
    });
  }
  m->push_back({"reliability.bfs_index_build_s",
                SpanStat(log_, "reliability.BfsSharingIndex.Build", 1e9), "s"});
  m->push_back({"reliability.bfs_prepare_ms",
                SpanStat(log_, PrepareSpanName(EstimatorKind::kBfsSharing), 1e6),
                "ms"});
  m->push_back({"reliability.bfs_estimate_ms",
                SpanStat(log_,
                         BareSpanName(EstimatorKind::kBfsSharing,
                                      WorkloadKind::kSt),
                         1e6),
                "ms"});

  // Bare MC with the engine's seeds and plan: s-t estimates over up to 1,000
  // stream pairs, sweeps and distance queries over the audit pairs.
  auto mc = Unwrap(MakeEstimatorReplicas(EstimatorKind::kMonteCarlo, graph(),
                                         kProbeThreads, options.factory),
                   "MakeEstimatorReplicas (mc)");
  auto bare_opts = [&](const EngineQuery& q) {
    EstimateOptions opts;
    opts.num_samples = kSamples;
    opts.num_strata = options.num_strata;
    opts.seed = engine_->QuerySeed(q);
    return opts;
  };
  std::vector<EngineQuery> st = pairs;
  for (uint64_t j = 0; st.size() < 1000; ++j) {
    const EngineQuery& q = workload_.items()[workload_.Forward(j)];
    if (!IsSweepWorkload(q.workload)) {
      st.push_back(EngineQuery::St(q.source, q.target));
    }
  }
  const char* kEstimate = "reliability.MonteCarlo.Estimate[probe]";
  const char* kSweep = "reliability.MonteCarlo.EstimateFromSource[probe]";
  const char* kDistance =
      "reliability.MonteCarlo.EstimateDistanceConstrained[probe]";
  ParallelFor(st.size(), 4.0, 100, &log_,
              [&](size_t t, size_t i, SpanLog::Lane* l) {
    SpanLog::Scope s(l, kEstimate, -1, i);
    Unwrap(mc[t]->Estimate(st[i].AsSt(), bare_opts(st[i])), "Estimate (mc)");
  });
  ParallelFor(pairs.size(), 1.5, kProbeThreads, &log_,
              [&](size_t t, size_t i, SpanLog::Lane* l) {
    const EngineQuery q = EngineQuery::TopK(pairs[i].source, kTopK);
    SpanLog::Scope s(l, kSweep, -1, i);
    Unwrap(mc[t]->EstimateFromSource(q.source, bare_opts(q)),
           "EstimateFromSource");
  });
  ParallelFor(pairs.size(), 1.0, kProbeThreads, &log_,
              [&](size_t t, size_t i, SpanLog::Lane* l) {
    const EngineQuery q =
        EngineQuery::Distance(pairs[i].source, pairs[i].target, kMaxHops);
    SpanLog::Scope s(l, kDistance, -1, i);
    Unwrap(mc[t]->EstimateDistanceConstrained(q.AsSt(), kMaxHops, bare_opts(q)),
           "EstimateDistanceConstrained");
  });
  m->push_back({"reliability.mc_estimate_p50_ms",
                SpanStat(log_, kEstimate, 1e6, 0.50), "ms"});
  m->push_back({"reliability.mc_estimate_p99_ms",
                SpanStat(log_, kEstimate, 1e6, 0.99), "ms"});
  m->push_back({"reliability.mc_sweep_ms", SpanStat(log_, kSweep, 1e6), "ms"});
  m->push_back(
      {"reliability.mc_distance_ms", SpanStat(log_, kDistance, 1e6), "ms"});
}

void Run::ProbeCache(SpanLog::Lane* lane, std::vector<Metric>* m) {
  // Cache hits through the engine: re-ask audit queries already answered.
  const std::vector<uint32_t>& audit = workload_.audit();
  {
    SpanLog::Scope probe(lane, "probe.engine.hit");
    size_t misses = 0;
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < audit.size(); ++i) {
        SpanLog::Scope s(lane, "engine.QueryEngine.RunBatch[hit]", probe.id(),
                         i);
        auto res = Unwrap(engine_->RunBatch(std::vector<EngineQuery>{
                              workload_.items()[audit[i]]}),
                          "RunBatch (hit)");
        misses += !res[0].ok() || !res[0].cache_hit;
      }
    }
    // The bounded caches of the mixed workload may have evicted a few.
    if (misses == 4 * audit.size()) {
      failures_.push_back("answered audit queries never hit the cache");
    }
  }
  m->push_back({"engine.hit_us",
                SpanStat(log_, "engine.QueryEngine.RunBatch[hit]", 1e3), "us"});

  // Direct ResultCache inserts and lookups on the workload's key stream.
  const EngineOptions& options = engine_->options();
  const size_t n = 1 << 16;
  std::vector<ResultCacheKey> keys(n);
  for (size_t j = 0; j < n; ++j) {
    const EngineQuery& q = workload_.items()[workload_.Forward(j)];
    const QueryPlan plan = engine_->PlanFor(q);
    keys[j] =
        ResultCacheKey{q, plan.kind, plan.num_samples, engine_->QuerySeed(q)};
  }
  const ResultCacheValue value(0.25, kSamples);
  SpanLog::Scope probe(lane, "probe.engine.cache");
  for (int rep = 0; rep < 5; ++rep) {
    ResultCache cache(options.cache_capacity, options.cache_shards,
                      options.cache_max_bytes);
    {
      SpanLog::Scope s(lane, "engine.ResultCache.Insert[batch]", probe.id());
      for (const ResultCacheKey& k : keys) cache.Insert(k, value);
    }
    size_t found = 0;
    {
      SpanLog::Scope s(lane, "engine.ResultCache.Lookup[batch]", probe.id());
      for (const ResultCacheKey& k : keys) found += cache.Lookup(k).has_value();
    }
    if (found == 0) failures_.push_back("cache probe found no inserted key");
  }
  m->push_back({"engine.cache_lookup_ns",
                SpanStat(log_, "engine.ResultCache.Lookup[batch]", n), "ns"});
  m->push_back({"engine.cache_insert_ns",
                SpanStat(log_, "engine.ResultCache.Insert[batch]", n), "ns"});
}

void Run::ProbePersist(SpanLog::Lane* lane, std::vector<Metric>* m) {
  // On the mixed workload: the restart's own journal and restore, and a
  // flush of the serving engine. Elsewhere a side engine of the same
  // configuration journals 32 audit answers, flushes, and restarts.
  SpanLog::Scope probe(lane, "probe.persist");
  const char* kFlush = "persist.QueryEngine.FlushWarmState";
  uint64_t journal_bytes = 0;
  uint64_t restored = 0;
  auto restored_entries = [](const QueryEngine& engine) {
    const auto& report = engine.warm_restore_report();
    return report.result_entries + report.sweep_entries;
  };
  if (spec_.mixed_restart) {
    SpanLog::Scope s(lane, kFlush, probe.id());
    Check(engine_->FlushWarmState(), "FlushWarmState");
    journal_bytes = prefix_journal_bytes_;
    restored = restored_entries(*engine_);
  } else {
    const EngineOptions options =
        MakeEngineOptions(spec_, work_dir_ + "/persist-probe");
    std::vector<EngineQuery> batch;
    for (uint32_t item : workload_.audit()) {
      if (batch.size() < 32) batch.push_back(workload_.items()[item]);
    }
    std::string journal;
    {
      std::unique_ptr<QueryEngine> side;
      {
        SpanLog::Scope s(lane, "engine.QueryEngine.Create[side]", probe.id());
        side = Unwrap(QueryEngine::Create(graph(), options),
                      "QueryEngine::Create (persist probe)");
      }
      {
        SpanLog::Scope s(lane, "engine.QueryEngine.RunBatch[side]",
                         probe.id());
        Unwrap(side->RunBatch(batch), "RunBatch (persist probe)");
      }
      SpanLog::Scope s(lane, kFlush, probe.id());
      Check(side->FlushWarmState(), "FlushWarmState");
      journal = side->persist_store()->journal_path();
    }
    journal_bytes = fs::file_size(journal);
    SpanLog::Scope s(lane, "persist.QueryEngine.Create[restore]", probe.id());
    const auto restarted = Unwrap(QueryEngine::Create(graph(), options),
                                  "QueryEngine::Create (restore)");
    restored = restored_entries(*restarted);
  }
  m->push_back(
      {"persist.journal_bytes", static_cast<double>(journal_bytes), "bytes"});
  m->push_back(
      {"persist.restored_entries", static_cast<double>(restored), "count"});
  m->push_back({"persist.flush_ms", SpanStat(log_, kFlush, 1e6), "ms"});
}

int Run::Execute() {
  Setup();
  QueryEngine& engine = *engine_;
  const std::vector<uint32_t>& audit = workload_.audit();

  // Warm-up: same clients, items from the far end of the stream.
  RunPhase(engine, workload_, spec_.clients, kWarmupSeconds, nullptr,
           [&](uint64_t j) { return workload_.Warm(j); }, nullptr, 1, 0);

  const double measured_s = trace_ ? seconds_ / 2 : seconds_;
  const PhaseResult timed = RunPhase(
      engine, workload_, spec_.clients, measured_s, &audit,
      [&](uint64_t j) { return workload_.Forward(j); }, nullptr, 1, 0);

  PhaseResult traced;
  EngineStatsSnapshot before_traced;
  if (trace_) {
    before_traced = engine.StatsSnapshot();
    // Sample requests so the traced half records about kMaxRequestSpans.
    const uint64_t offset = timed.forward_used;
    const uint64_t trace_every = std::max<uint64_t>(
        1, static_cast<uint64_t>(timed.qps() * measured_s / kMaxRequestSpans));
    traced = RunPhase(
        engine, workload_, spec_.clients, measured_s, nullptr,
        [&](uint64_t j) { return workload_.Forward(offset + j); }, &log_,
        trace_every, uint64_t{1} << 40);
  }

  // Correctness: bare replay of the audit answers, plausibility, the
  // engine's outcome partition, and error against the references.
  std::vector<EngineQuery> audit_queries;
  for (uint32_t item : audit) audit_queries.push_back(workload_.items()[item]);
  const size_t replay_count = trace_ ? audit.size() : spec_.replay_sample;
  SpanLog scratch;
  const ReplayResult replay =
      Replay(engine, graph(), audit_queries, timed.audit_results, replay_count,
             trace_ ? &log_ : &scratch);
  if (replay.mismatches > 0) {
    failures_.push_back(StrFormat("%zu of %zu replayed answers differ from a "
                                  "bare estimator",
                                  replay.mismatches, replay.replayed));
  }
  for (const PhaseResult* p : {&timed, const_cast<const PhaseResult*>(&traced)}) {
    if (p->implausible > 0) {
      failures_.push_back(StrFormat("%llu answers out of range or unsorted",
                                    static_cast<unsigned long long>(
                                        p->implausible)));
    }
  }
  size_t scored = 0;
  size_t missing = 0;
  const double abs_err =
      AbsErrMean(audit_queries, timed.audit_results, refs_, &scored, &missing);
  if (scored == 0 || missing > 0) {
    failures_.push_back(StrFormat("reference answers: %zu scored, %zu missing",
                                  scored, missing));
  }

  std::vector<Metric> metrics;
  if (!trace_) {
    metrics.push_back({"qps", timed.qps(), "1/s"});
    metrics.push_back(
        {"latency_p50_ms", timed.WindowedPercentileMs(0.50), "ms"});
    metrics.push_back(
        {"latency_p99_ms", timed.latency.PercentileMs(0.99), "ms"});
    metrics.push_back({"setup_s", Median(setup_s_), "s"});
    metrics.push_back({"success_ratio",
                       timed.attempted == 0
                           ? 0.0
                           : static_cast<double>(timed.completed()) /
                                 static_cast<double>(timed.attempted),
                       "ratio"});
    metrics.push_back({"abs_err_mean", abs_err, "prob"});
  } else {
    metrics = ProbeLayers(timed, traced, before_traced, replay);
  }

  const EngineStatsSnapshot stats = engine.StatsSnapshot();
  if (stats.executed + stats.coalesced + stats.failures + stats.cache.hits !=
      stats.queries) {
    failures_.push_back("engine outcome partition does not add up");
  }
  engine_.reset();
  if (!trace_) {
    metrics.push_back({"peak_rss_mb",
                       static_cast<double>(PeakRssKb()) / 1024.0, "MB"});
  }

  if (trace_) {
    const std::string path = StrFormat(
        "%s/trace-%s-%llu.tsv", out_dir_.c_str(), spec_.name,
        static_cast<unsigned long long>(seed_));
    if (!log_.WriteTsv(path)) failures_.push_back("cannot write " + path);
  }

  const uint64_t attempted = timed.attempted + traced.attempted;
  const uint64_t failed = timed.failed + traced.failed;
  std::printf("workload %s seed %llu: %llu queries in %.2f s (%zu clients), "
              "%zu audit answers replayed, %zu reference values scored\n",
              spec_.name, static_cast<unsigned long long>(seed_),
              static_cast<unsigned long long>(timed.attempted), timed.elapsed_s,
              spec_.clients, replay.replayed, scored);
  std::printf("setup samples (s):");
  for (double v : setup_s_) std::printf(" %.4f", v);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      failures_.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A failed query misses any latency limit: report it as 1e9 ms.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e9;
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                      metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures_.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string make_references;
  std::string refs_dir = "perfbench/refs";
  std::string out_dir = ".bench_out";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--refs") {
      refs_dir = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--make-references") {
      make_references = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!make_references.empty()) return MakeReferences(make_references, refs_dir);
  if (seconds <= 0) Die("--seconds must be positive");
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload != spec.name) continue;
    fs::create_directories(out_dir);
    Run run(spec, seed, seconds, trace, refs_dir, out_dir);
    return run.Execute();
  }
  Die("unknown workload '" + workload +
      "' (st_bfs_sharing, mixed_zipf_restart, st_distinct_mc)");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
