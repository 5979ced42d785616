// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// the cycle simulator, the power analyzer, the SGFormer kernels that
// inference runs (project_rows and forward_tail, and core::encode_batch
// around them — the dominant cost of ATLAS inference) and the GBDT heads' batched traversal
// (predict_rows). These are the numbers to watch when optimizing the
// Table IV "Infer" column.
#include <benchmark/benchmark.h>

#include "atlas/model.h"
#include "designgen/design_generator.h"
#include "graph/submodule_graph.h"
#include "liberty/library.h"
#include "ml/gbdt.h"
#include "ml/sgformer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/power_analyzer.h"
#include "sim/simulator.h"
#include "transform/rewrite.h"
#include "util/arena.h"
#include "util/parallel.h"

namespace {

using namespace atlas;

const liberty::Library& lib() {
  static const liberty::Library l = liberty::make_default_library();
  return l;
}

const netlist::Netlist& design() {
  static const netlist::Netlist nl =
      designgen::generate_design(designgen::paper_design_spec(2, 0.004), lib());
  return nl;
}

void BM_CycleSimulator(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  const int cycles = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::CycleSimulator sim(nl);
    sim::StimulusGenerator stim(nl, sim::make_w1());
    benchmark::DoNotOptimize(sim.run(stim, cycles));
  }
  state.SetItemsProcessed(state.iterations() * cycles *
                          static_cast<long>(nl.num_cells()));
}
BENCHMARK(BM_CycleSimulator)->Arg(50)->Arg(300);

void BM_PowerAnalysis(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  sim::CycleSimulator sim(nl);
  sim::StimulusGenerator stim(nl, sim::make_w1());
  const sim::ToggleTrace trace = sim.run(stim, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(power::analyze_power(nl, trace));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<long>(nl.num_cells()));
}
BENCHMARK(BM_PowerAnalysis)->Arg(300);

// Thread-scaling of the per-cycle power loop (the issue's headline hot
// path). Arg = thread count; compare against Arg(1) for the speedup — on
// multi-core hardware 4 threads should land >= 2x (the loop is
// embarrassingly parallel over cycles). Outputs are bit-identical at every
// thread count; see power_test ThreadCountEquivalence.
void BM_PowerAnalysisThreads(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  sim::CycleSimulator sim(nl);
  sim::StimulusGenerator stim(nl, sim::make_w1());
  const sim::ToggleTrace trace = sim.run(stim, 300);
  util::set_global_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(power::analyze_power(nl, trace));
  }
  util::set_global_threads(0);
  state.SetItemsProcessed(state.iterations() * 300 *
                          static_cast<long>(nl.num_cells()));
}
BENCHMARK(BM_PowerAnalysisThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Arg(atlas::util::hardware_concurrency());

// Thread-scaling of the full workload simulation + toggle recording.
void BM_CycleSimulatorThreads(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  util::set_global_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sim::CycleSimulator sim(nl);
    sim::StimulusGenerator stim(nl, sim::make_w1());
    benchmark::DoNotOptimize(sim.run(stim, 300));
  }
  util::set_global_threads(0);
  state.SetItemsProcessed(state.iterations() * 300 *
                          static_cast<long>(nl.num_cells()));
}
BENCHMARK(BM_CycleSimulatorThreads)->Arg(1)->Arg(4);

void BM_LogicRewrite(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform::apply_rewrites(nl, {}));
  }
}
BENCHMARK(BM_LogicRewrite);

ml::SgFormer atlas_encoder() {
  ml::SgFormer::Config cfg;
  cfg.in_dim = graph::kFeatureDim;
  cfg.dim = 32;
  return ml::SgFormer(cfg);
}

void BM_SgFormerForwardFused(benchmark::State& state) {
  // The per-segment tail (forward_tail) over a block of 16 synthetic chain
  // graphs of the requested size, from H/Q/K/V planes packed as
  // encode_batch gathers them for one row block.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSegments = 16;
  const ml::SgFormer enc = atlas_encoder();
  util::Rng rng(5);
  const ml::Matrix feats =
      ml::Matrix::randn(kSegments * n, graph::kFeatureDim, rng, 1.0f);
  std::vector<float> hqkv(4 * kSegments * n * enc.dim());
  enc.project_rows(feats.data(), kSegments * n, hqkv.data());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  const ml::SgFormer::NormAdjacency adj =
      ml::SgFormer::build_norm_adjacency(n, &edges);
  const std::vector<ml::SgFormer::Segment> segs(kSegments, {n, &adj});
  std::vector<float> out(kSegments * enc.dim());
  util::Arena arena;
  for (auto _ : state) {
    const util::Arena::Marker m = arena.mark();
    enc.forward_tail(segs.data(), segs.size(), hqkv.data(), out.data(), arena);
    arena.rewind(m);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kSegments * n));
}
// A serial kernel: encode_batch runs one call per row block on each pool
// thread, so this times one core's share of the encoder.
BENCHMARK(BM_SgFormerForwardFused)->Arg(64)->Arg(256)->Arg(1024);

void BM_SgFormerProjectTable(benchmark::State& state) {
  // The row-local projection (project_rows) over one graph's toggle table:
  // three rows per node, as each encode_batch task builds it before
  // gathering. Items = projected rows.
  const std::size_t rows = 3 * static_cast<std::size_t>(state.range(0));
  const ml::SgFormer enc = atlas_encoder();
  util::Rng rng(6);
  const ml::Matrix feats =
      ml::Matrix::randn(rows, graph::kFeatureDim, rng, 1.0f);
  std::vector<float> hqkv(4 * rows * enc.dim());
  for (auto _ : state) {
    enc.project_rows(feats.data(), rows, hqkv.data());
    benchmark::DoNotOptimize(hqkv.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}
BENCHMARK(BM_SgFormerProjectTable)->Arg(64)->Arg(256)->Arg(1024);

void BM_EncodeBatch(benchmark::State& state) {
  // The whole inference encoder on a real design: every (sub-module,
  // cycle) of a W1 trace through core::encode_batch, at range(1) threads
  // (runs of at most 64 cycles of one graph are the parallel axis, so 1 vs
  // 2 vs 4 is the encoder's parallel efficiency). Items = (sub-module,
  // cycle) embeddings, duplicate cycles included.
  const netlist::Netlist& nl = design();
  const std::vector<graph::SubmoduleGraph> graphs =
      graph::build_submodule_graphs(nl);
  const int cycles = static_cast<int>(state.range(0));
  sim::CycleSimulator sim(nl);
  sim::StimulusGenerator stim(nl, sim::make_w1());
  const sim::ToggleTrace trace = sim.run(stim, cycles);
  const ml::SgFormer enc = atlas_encoder();
  util::Arena arena;
  util::set_global_threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    core::DesignEmbeddings emb;
    const core::EncodeItem item{&nl, &graphs, &trace, &emb};
    core::encode_batch(enc, &item, 1, arena);
    benchmark::DoNotOptimize(emb.graphs.data());
  }
  util::set_global_threads(0);
  state.SetItemsProcessed(state.iterations() * cycles *
                          static_cast<long>(graphs.size()));
}
BENCHMARK(BM_EncodeBatch)
    ->ArgsProduct({{50}, {1, 2, 4}})
    ->ArgNames({"cycles", "threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GbdtPredictRows(benchmark::State& state) {
  util::Rng rng(7);
  const std::size_t n = 2000;
  ml::Matrix x(n, 35);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 35; ++j) x.at(i, j) = static_cast<float>(rng.next_double());
    y[i] = x.at(i, 0) * 3 + x.at(i, 1);
  }
  ml::GbdtConfig cfg;
  cfg.n_trees = 300;
  ml::GbdtRegressor model(cfg);
  model.fit(x, y);
  std::vector<double> out(n);
  for (auto _ : state) {
    model.predict_rows(x.data(), n, x.cols(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_GbdtPredictRows);

void BM_SubmoduleGraphBuild(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_submodule_graphs(nl));
  }
}
BENCHMARK(BM_SubmoduleGraphBuild);

// --- Observability overhead (src/obs/) -----------------------------------
//
// BM_ObsSpanDisabled is the number that licenses leaving ObsSpan in every
// flow phase and pool batch: the disabled path is one relaxed load plus a
// branch, targeted under 5 ns. The enabled path pays two clock reads and a
// short critical section — fine for coarse spans, never per-cell loops.

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::Trace::disable();
  for (auto _ : state) {
    obs::ObsSpan span("bench", "disabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Trace::enable();
  for (auto _ : state) {
    obs::ObsSpan span("bench", "enabled");
    benchmark::DoNotOptimize(&span);
  }
  obs::Trace::disable();
  obs::Trace::clear();
}
BENCHMARK(BM_ObsSpanEnabled);

// Contended counter increment: all threads hammer one cache line. This is
// the worst case; real instrumentation points increment far less often
// than once per ~20 ns, so even the 8-thread number is invisible at the
// batch/request granularity the pipeline uses.
void BM_ObsCounterInc(benchmark::State& state) {
  static obs::Counter* c =
      &obs::Registry::global().counter("atlas_bench_incs_total");
  for (auto _ : state) {
    c->inc();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc)->Threads(1)->Threads(4)->Threads(8);

}  // namespace

BENCHMARK_MAIN();
