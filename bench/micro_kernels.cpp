// EXP-M1 — micro benchmarks of the hot kernels (google-benchmark).
//
// Section VI: "The execution time of the EA is mainly determined by the
// mapping function as it evaluates the fitness of individuals." These
// benchmarks quantify exactly that: bottom levels, one fitness evaluation
// (list scheduling), CPA-family allocation, the mutation operator, and a
// whole EMTS generation, across graph and platform sizes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "eval/evaluation_engine.hpp"
#include "heuristics/cpa.hpp"
#include "ptg/algorithms.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/mapping_kernel.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace ptgsched;

Ptg bench_graph(int tasks) {
  RandomDagParams params;
  params.num_tasks = tasks;
  params.width = 0.5;
  params.regularity = 0.5;
  params.density = 0.5;
  params.jump = 2;
  Rng rng(17);
  return make_random_ptg(params, rng);
}

/// The owned problem a benchmark times, built before its timed loop.
template <typename Model>
std::shared_ptr<const ProblemInstance> bench_instance(int tasks,
                                                      Cluster cluster) {
  return ProblemInstance::create(
      std::make_shared<const Ptg>(bench_graph(tasks)),
      std::make_shared<const Model>(),
      std::make_shared<const Cluster>(std::move(cluster)));
}

void BM_BottomLevels(benchmark::State& state) {
  const Ptg g = bench_graph(static_cast<int>(state.range(0)));
  const auto topo = topological_order(g);
  std::vector<double> out;
  const auto time = [&g](TaskId v) { return g.task(v).flops * 1e-12; };
  for (auto _ : state) {
    bottom_levels_into(g, topo, time, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BottomLevels)->Arg(20)->Arg(100)->Arg(500);

void BM_FitnessEvaluation(benchmark::State& state) {
  const auto instance = bench_instance<SyntheticModel>(
      static_cast<int>(state.range(0)),
      Cluster("c", static_cast<int>(state.range(1)), 3.1));
  ListScheduler sched(instance);
  Rng rng(5);
  Allocation alloc(instance->num_tasks());
  for (auto& s : alloc) {
    s = static_cast<int>(rng.uniform_int(1, instance->num_processors()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.makespan(alloc));
  }
}
BENCHMARK(BM_FitnessEvaluation)
    ->Args({20, 20})
    ->Args({100, 20})
    ->Args({100, 120})
    ->Args({500, 120});

// Virtual-dispatch vs time-table fitness evaluation: identical
// MappingKernel passes, differing only in where the per-task times come from — a virtual
// ExecutionTimeModel::time call per task (the pre-ProblemInstance hot
// path) or the instance's dense V x P table. The gap is the
// devirtualization win the shared problem core buys every evaluation.
void BM_FitnessTimesSource(benchmark::State& state) {
  const bool use_table = state.range(2) != 0;
  const auto instance = bench_instance<SyntheticModel>(
      static_cast<int>(state.range(0)),
      Cluster("c", static_cast<int>(state.range(1)), 3.1));
  const Ptg& g = instance->graph();
  const Cluster& cluster = instance->cluster();
  const ExecutionTimeModel& model = instance->model();
  const double* table = instance->time_table().data();
  const auto stride = static_cast<std::size_t>(cluster.num_processors());

  MappingKernel core(*instance,
                     {MappingLane{cluster.num_processors(), 0}});
  Rng rng(5);
  Allocation alloc(g.num_tasks());
  for (auto& s : alloc) {
    s = static_cast<int>(rng.uniform_int(1, cluster.num_processors()));
  }
  std::vector<double> times(g.num_tasks());
  const auto place = [&](TaskId v, double data_ready) {
    MappingKernel::Placement p;
    p.lane = 0;
    p.size = static_cast<std::size_t>(alloc[v]);
    p.start = core.earliest_start(0, p.size, data_ready);
    p.finish = p.start + times[v];
    return p;
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    if (use_table) {
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        times[v] = table[v * stride + static_cast<std::size_t>(alloc[v]) - 1];
      }
    } else {
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        times[v] = model.time(g.task(v), alloc[v], cluster);
      }
    }
    benchmark::DoNotOptimize(core.run(
        times, ProcessorSelection::EarliestAvailable, inf, nullptr, place));
  }
}
BENCHMARK(BM_FitnessTimesSource)
    ->Args({100, 120, 0})   // virtual dispatch
    ->Args({100, 120, 1})   // time table
    ->Args({500, 120, 0})
    ->Args({500, 120, 1});

void BM_CpaAllocation(benchmark::State& state) {
  const auto instance = bench_instance<AmdahlModel>(
      static_cast<int>(state.range(0)), grelon());
  instance->warm();
  const CpaAllocation cpa;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpa.allocate(*instance));
  }
}
BENCHMARK(BM_CpaAllocation)->Arg(20)->Arg(100)->Arg(500);

void BM_McpaAllocation(benchmark::State& state) {
  const auto instance = bench_instance<AmdahlModel>(
      static_cast<int>(state.range(0)), grelon());
  instance->warm();
  const McpaAllocation mcpa;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcpa.allocate(*instance));
  }
}
BENCHMARK(BM_McpaAllocation)->Arg(20)->Arg(100)->Arg(500);

void BM_MutationOperator(benchmark::State& state) {
  MutationParams params;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_allocation_delta(params, rng));
  }
}
BENCHMARK(BM_MutationOperator);

void BM_MutateIndividual(benchmark::State& state) {
  const auto V = static_cast<std::size_t>(state.range(0));
  const MutateFn mutate = Emts::make_mutator(MutationParams{}, 0.33, 5, 120);
  Rng rng(4);
  const Allocation parent(V, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mutate(parent, 0, rng));
  }
}
BENCHMARK(BM_MutateIndividual)->Arg(20)->Arg(100);

void BM_EmtsFull(benchmark::State& state) {
  const auto instance = bench_instance<SyntheticModel>(
      static_cast<int>(state.range(0)), grelon());
  EmtsConfig cfg = emts5_config();
  cfg.seed = 11;
  const Emts emts(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emts.schedule(instance).makespan);
  }
}
BENCHMARK(BM_EmtsFull)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

// Blocked dispatch: one queue entry per helper, blocks claimed atomically.
void BM_ParallelForBlocked(benchmark::State& state) {
  ThreadPool pool(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t grain = std::max<std::size_t>(1, n / 16);
  std::atomic<long long> sink{0};
  for (auto _ : state) {
    pool.parallel_for_blocked(n, grain,
                              [&](std::size_t lo, std::size_t hi, std::size_t) {
                                long long s = 0;
                                for (std::size_t i = lo; i < hi; ++i) {
                                  s += static_cast<long long>(i);
                                }
                                sink.fetch_add(s, std::memory_order_relaxed);
                              });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ParallelForBlocked)->Arg(100)->Arg(1000);

// One EMTS-10-sized generation through the persistent evaluation engine.
void BM_EngineBatch(benchmark::State& state) {
  const auto instance = bench_instance<SyntheticModel>(100, grelon());
  EvalEngineConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  EvaluationEngine engine(instance, {}, cfg);
  const MutateFn mutate = Emts::make_mutator(MutationParams{}, 0.33, 10,
                                             instance->num_processors());
  const Allocation base(instance->num_tasks(), 4);
  Rng rng(9);
  std::vector<Individual> batch(100);
  for (auto& ind : batch) ind.genes = mutate(base, 0, rng);
  for (auto _ : state) {
    auto pool = batch;
    engine.evaluate_batch(pool, 0);
    benchmark::DoNotOptimize(pool.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_EngineBatch)->Arg(1)->Arg(4)->Arg(8);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        irregular_corpus(100, static_cast<std::size_t>(state.range(0)), 7));
  }
}
BENCHMARK(BM_CorpusGeneration)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom entry point instead of benchmark_main: `--json PATH` is the
// repo-wide bench convention (scripts/bench_report consumes it) and maps
// onto google-benchmark's out/out_format flag pair.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.emplace_back(a);
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (auto& s : args) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
