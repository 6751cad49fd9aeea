// Micro-benchmarks (google-benchmark): per-query cost of each estimator at
// fixed K on the LastFM analogue (PrepareForNextQuery + Estimate, the
// serving path's pair), plus the core primitives (possible-world
// sampling, BFS Sharing's per-query world resampling and its word fill,
// hop distances). Complements the table benches with tight per-op numbers.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/bitvector.h"
#include "common/rng.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "graph/possible_world.h"
#include "reliability/bfs_sharing.h"
#include "reliability/estimator_factory.h"

namespace relcomp {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<ReliabilityQuery> queries;

  static const Fixture& Get() {
    static const Fixture* fixture = [] {
      auto* f = new Fixture();
      f->dataset = MakeDataset(DatasetId::kLastFm, Scale::kTiny, 7).MoveValue();
      QueryGenOptions options;
      options.num_pairs = 8;
      options.seed = 11;
      f->queries = GenerateQueries(f->dataset.graph, options).MoveValue();
      return f;
    }();
    return *fixture;
  }
};

void BM_Estimator(benchmark::State& state, EstimatorKind kind) {
  const Fixture& fixture = Fixture::Get();
  FactoryOptions factory;
  factory.bfs_sharing.index_samples = 2048;
  auto estimator = MakeEstimator(kind, fixture.dataset.graph, factory);
  if (!estimator.ok()) {
    state.SkipWithError(estimator.status().ToString().c_str());
    return;
  }
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  size_t qi = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    // Re-arm before every query, as the serving path does: a no-op for most
    // kinds, but for BFS Sharing the per-query world resample that
    // dominates its cost.
    const Status prepared = (*estimator)->PrepareForNextQuery(++seed);
    if (!prepared.ok()) {
      state.SkipWithError(prepared.ToString().c_str());
      return;
    }
    EstimateOptions opts;
    opts.num_samples = k;
    opts.seed = seed;
    const auto result =
        (*estimator)->Estimate(fixture.queries[qi % fixture.queries.size()], opts);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->reliability);
    ++qi;
  }
  state.counters["samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * k, benchmark::Counter::kIsRate);
}

BENCHMARK_CAPTURE(BM_Estimator, MC, EstimatorKind::kMonteCarlo)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, BFSSharing, EstimatorKind::kBfsSharing)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, ProbTree, EstimatorKind::kProbTree)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, LPplus, EstimatorKind::kLazyPropagationPlus)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, RHH, EstimatorKind::kRecursive)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, RSS, EstimatorKind::kRecursiveStratified)
    ->Arg(250)->Arg(1000);

void BM_SampleWorld(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleWorld(fixture.dataset.graph, rng));
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * fixture.dataset.graph.num_edges()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampleWorld);

void BM_HopDistances(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  NodeId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HopDistances(fixture.dataset.graph, s));
    s = (s + 1) % fixture.dataset.graph.num_nodes();
  }
}
BENCHMARK(BM_HopDistances);

// BFS Sharing's inter-query resample on LastFM small at L = 1500: the
// serving path's dominant per-query cost.
void BM_BfsPrepare(benchmark::State& state) {
  static const Dataset* dataset = new Dataset(
      MakeDataset(DatasetId::kLastFm, Scale::kSmall, 42).MoveValue());
  BfsSharingOptions options;
  options.index_samples = 1500;
  auto estimator = BfsSharingEstimator::Create(dataset->graph, options, 1);
  if (!estimator.ok()) {
    state.SkipWithError(estimator.status().ToString().c_str());
    return;
  }
  uint64_t seed = 1;
  for (auto _ : state) {
    const Status status = (*estimator)->PrepareForNextQuery(++seed);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * dataset->graph.num_edges()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BfsPrepare)->Unit(benchmark::kMillisecond);

// One edge's L = 1500 worlds: the geometric-skip path (p < 0.25) and the
// per-bit dense path.
void BM_FillBernoulliWords(benchmark::State& state, double p) {
  constexpr size_t kBits = 1500;
  std::vector<uint64_t> words((kBits + 63) / 64);
  Rng rng(3);
  for (auto _ : state) {
    BitVector::FillBernoulliWords(words.data(), kBits, p, rng);
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.counters["bits_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBits),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_FillBernoulliWords, p0_1, 0.1);
BENCHMARK_CAPTURE(BM_FillBernoulliWords, p0_5, 0.5);

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
