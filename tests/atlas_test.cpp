#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "atlas/finetune.h"
#include "atlas/logic_cones.h"
#include "atlas/memory_model.h"
#include "atlas/metrics.h"
#include "atlas/model.h"
#include "atlas/preprocess.h"
#include "atlas/pretrain.h"
#include "netlist/verilog_io.h"
#include "obs/metrics.h"
#include "serial_encode_oracle.h"
#include "sim/simulator.h"
#include "util/arena.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace atlas::core {
namespace {

/// Shared, lazily built fixture data: preparing designs is the expensive
/// part, so build two small ones once for the whole suite.
class AtlasCoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new liberty::Library(liberty::make_default_library());
    PreprocessConfig cfg;
    cfg.cycles = 40;
    train_ = new DesignData(
        prepare_design(designgen::paper_design_spec(1, 0.0025), *lib_, cfg));
    test_ = new DesignData(
        prepare_design(designgen::paper_design_spec(2, 0.0025), *lib_, cfg));
  }
  static void TearDownTestSuite() {
    delete train_;
    delete test_;
    delete lib_;
    train_ = nullptr;
    test_ = nullptr;
    lib_ = nullptr;
  }

  static liberty::Library* lib_;
  static DesignData* train_;
  static DesignData* test_;
};

liberty::Library* AtlasCoreTest::lib_ = nullptr;
DesignData* AtlasCoreTest::train_ = nullptr;
DesignData* AtlasCoreTest::test_ = nullptr;

TEST_F(AtlasCoreTest, PreprocessAlignsStages) {
  ASSERT_EQ(train_->gate_graphs.size(), train_->plus_graphs.size());
  ASSERT_EQ(train_->gate_graphs.size(), train_->post_graphs.size());
  for (std::size_t i = 0; i < train_->gate_graphs.size(); ++i) {
    EXPECT_EQ(train_->gate_graphs[i].submodule, train_->post_graphs[i].submodule);
    // Post-layout graphs may differ in size (buffers, clock tree) but not
    // wildly.
    const double ratio = static_cast<double>(train_->post_graphs[i].num_nodes()) /
                         static_cast<double>(train_->gate_graphs[i].num_nodes());
    EXPECT_GT(ratio, 0.4);
    EXPECT_LT(ratio, 2.5);
  }
}

TEST_F(AtlasCoreTest, PreprocessRecordsTimers) {
  EXPECT_GT(train_->timers.get("pnr"), 0.0);
  EXPECT_GT(train_->timers.get("golden_sim"), 0.0);
  EXPECT_GT(train_->timers.get("atlas_pre"), 0.0);
}

TEST_F(AtlasCoreTest, WorkloadDataComplete) {
  ASSERT_EQ(train_->workloads.size(), 2u);
  for (const auto& wl : train_->workloads) {
    EXPECT_EQ(wl.gate_trace.num_cycles(), 40);
    EXPECT_EQ(wl.golden.num_cycles(), 40);
    EXPECT_GT(wl.golden.average_design().total(), 0.0);
    EXPECT_GT(wl.gate_level.average_design().total(), 0.0);
    // Gate level has no clock network.
    EXPECT_DOUBLE_EQ(wl.gate_level.average_design().clock, 0.0);
    EXPECT_GT(wl.golden.average_design().clock, 0.0);
  }
}

TEST_F(AtlasCoreTest, PretrainLossesDecrease) {
  PretrainConfig cfg;
  cfg.epochs = 4;
  cfg.cycles_per_graph = 2;
  cfg.dim = 16;
  const PretrainResult res = pretrain_encoder({train_}, cfg);
  ASSERT_EQ(res.report.epochs.size(), 4u);
  const EpochStats& first = res.report.epochs.front();
  const EpochStats& last = res.report.epochs.back();
  EXPECT_LT(last.total(), first.total());
  // Toggle task is learnable well above chance.
  EXPECT_GT(last.acc_toggle, 0.6);
  // Cross-stage alignment improves over random in-batch matching.
  EXPECT_GT(last.acc_cl_cross, 0.2);
}

TEST_F(AtlasCoreTest, TaskMaskDisablesTasks) {
  PretrainConfig cfg;
  cfg.epochs = 1;
  cfg.cycles_per_graph = 1;
  cfg.dim = 16;
  TaskMask only_toggle;
  only_toggle.node_type = only_toggle.size = false;
  only_toggle.cl_gate = only_toggle.cl_cross = false;
  const PretrainResult res = pretrain_encoder({train_}, cfg, only_toggle);
  const EpochStats& s = res.report.epochs.back();
  EXPECT_GT(s.loss_toggle, 0.0);
  EXPECT_DOUBLE_EQ(s.loss_type, 0.0);
  EXPECT_DOUBLE_EQ(s.loss_size, 0.0);
  EXPECT_DOUBLE_EQ(s.loss_cl_gate, 0.0);
  EXPECT_DOUBLE_EQ(s.loss_cl_cross, 0.0);
}

TEST_F(AtlasCoreTest, PreprocessThreadEquivalenceBitExact) {
  // prepare_design runs workloads in parallel and parallelizes per-node
  // feature extraction; all outputs must be bit-identical at threads=1 vs
  // threads=4 (exact float comparisons, no tolerances).
  PreprocessConfig cfg;
  cfg.cycles = 20;
  const auto spec = designgen::paper_design_spec(3, 0.002);
  util::set_global_threads(1);
  const DesignData serial = prepare_design(spec, *lib_, cfg);
  util::set_global_threads(4);
  const DesignData threaded = prepare_design(spec, *lib_, cfg);
  util::set_global_threads(0);

  ASSERT_EQ(serial.workloads.size(), threaded.workloads.size());
  for (std::size_t w = 0; w < serial.workloads.size(); ++w) {
    const auto& a = serial.workloads[w];
    const auto& b = threaded.workloads[w];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.golden.num_cycles(), b.golden.num_cycles());
    for (int c = 0; c < a.golden.num_cycles(); ++c) {
      ASSERT_EQ(a.golden.design(c).total(), b.golden.design(c).total())
          << "workload " << w << " cycle " << c;
      ASSERT_EQ(a.gate_level.design(c).total(), b.gate_level.design(c).total())
          << "workload " << w << " cycle " << c;
      for (std::size_t sm = 0; sm < a.golden.num_submodules(); ++sm) {
        const auto id = static_cast<netlist::SubmoduleId>(sm);
        ASSERT_EQ(a.golden.submodule(c, id).total(),
                  b.golden.submodule(c, id).total());
      }
    }
    // Toggle traces byte-for-byte (gate and post-layout net spaces differ,
    // so each trace is compared over its own net range).
    ASSERT_EQ(a.gate_trace.num_nets(), b.gate_trace.num_nets());
    ASSERT_EQ(a.post_trace.num_nets(), b.post_trace.num_nets());
    for (int c = 0; c < a.gate_trace.num_cycles(); ++c) {
      for (netlist::NetId n = 0; n < a.gate_trace.num_nets(); ++n) {
        ASSERT_EQ(a.gate_trace.transitions(c, n), b.gate_trace.transitions(c, n));
        ASSERT_EQ(a.gate_trace.value(c, n), b.gate_trace.value(c, n));
      }
      for (netlist::NetId n = 0; n < a.post_trace.num_nets(); ++n) {
        ASSERT_EQ(a.post_trace.transitions(c, n), b.post_trace.transitions(c, n));
      }
    }
  }
  // Sub-module graphs: same structure and bit-identical static features.
  ASSERT_EQ(serial.gate_graphs.size(), threaded.gate_graphs.size());
  for (std::size_t g = 0; g < serial.gate_graphs.size(); ++g) {
    const auto& a = serial.gate_graphs[g];
    const auto& b = threaded.gate_graphs[g];
    ASSERT_EQ(a.submodule, b.submodule);
    ASSERT_EQ(a.cells, b.cells);
    ASSERT_EQ(a.edges, b.edges);
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    for (std::size_t i = 0; i < a.num_nodes(); ++i) {
      for (std::size_t j = 0; j < graph::kFeatureDim; ++j) {
        ASSERT_EQ(a.static_features.at(i, j), b.static_features.at(i, j))
            << "graph " << g << " node " << i << " feat " << j;
      }
    }
  }
}

TEST_F(AtlasCoreTest, SubmoduleStaticCountsMatchNetlist) {
  const auto& g = train_->gate_graphs[0];
  const SubmoduleStatic st = compute_submodule_static(train_->gate, g);
  int comb = 0, reg = 0;
  for (const auto cid : g.cells) {
    const auto group = liberty::power_group_of(train_->gate.lib_cell(cid).type);
    comb += group == liberty::PowerGroup::kComb;
    reg += group == liberty::PowerGroup::kRegister;
  }
  EXPECT_EQ(st.n_comb, comb);
  EXPECT_EQ(st.n_reg, reg);
  EXPECT_GT(st.clockpin_reg_fj, 0.0);
}

TEST_F(AtlasCoreTest, CycleExtrasZeroWhenNoToggles) {
  const auto& g = train_->gate_graphs[0];
  const SubmoduleStatic st = compute_submodule_static(train_->gate, g);
  // Build a trace with no transitions at all.
  sim::ToggleTrace quiet(train_->gate.num_nets(), 1);
  const CycleExtras ex = compute_cycle_extras(g, st, quiet, 0);
  EXPECT_FLOAT_EQ(ex.i_comb, 0.0f);
  EXPECT_FLOAT_EQ(ex.c_comb, 0.0f);
  EXPECT_FLOAT_EQ(ex.i_reg, 0.0f);
  // Physics floor is leakage (+ clock pins for registers).
  EXPECT_NEAR(comb_physics_uw(st, ex), st.leak_comb_uw, 1e-9);
  EXPECT_GT(reg_physics_uw(st, ex), st.leak_reg_uw);
}

TEST_F(AtlasCoreTest, EndToEndTrainPredictEvaluate) {
  PretrainConfig pcfg;
  pcfg.epochs = 3;
  pcfg.cycles_per_graph = 2;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);

  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 60;
  fcfg.cycle_stride = 2;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);

  const AtlasModel model(std::move(pre.encoder), std::move(models));
  const auto& wl = test_->workloads[0];
  const Prediction pred =
      model.predict(test_->gate, test_->gate_graphs, wl.gate_trace);
  ASSERT_EQ(pred.num_cycles, 40);
  ASSERT_EQ(pred.num_submodules, test_->gate.submodules().size());

  const GroupMape atlas_m = evaluate_prediction(wl.golden, pred);
  const GroupMape base_m = evaluate_baseline(wl.golden, wl.gate_level);
  // Single-design training at tiny scale: demand sanity, not paper accuracy.
  EXPECT_LT(atlas_m.total, 60.0);
  EXPECT_DOUBLE_EQ(base_m.clock, 100.0);
  EXPECT_LT(atlas_m.clock, base_m.clock);
  // Predictions are nonnegative everywhere.
  for (int c = 0; c < pred.num_cycles; ++c) {
    EXPECT_GE(pred.at(c).comb, 0.0);
    EXPECT_GE(pred.at(c).clock, 0.0);
    EXPECT_GE(pred.at(c).reg, 0.0);
  }
}

TEST_F(AtlasCoreTest, ModelSerializationRoundTrip) {
  PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);
  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 20;
  fcfg.cycle_stride = 4;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);
  const AtlasModel model(std::move(pre.encoder), std::move(models));

  const std::string path = ::testing::TempDir() + "/atlas_model_test.bin";
  model.save(path);
  const AtlasModel back = AtlasModel::load(path);
  EXPECT_EQ(back.encoder().dim(), model.encoder().dim());

  // A loaded model is the same model: every cycle and every sub-module row
  // must be bit-identical, not merely close — serving depends on artifacts
  // behaving interchangeably with the in-memory original.
  const auto& wl = test_->workloads[0];
  const Prediction a = model.predict(test_->gate, test_->gate_graphs, wl.gate_trace);
  const Prediction b = back.predict(test_->gate, test_->gate_graphs, wl.gate_trace);
  ASSERT_EQ(a.num_cycles, b.num_cycles);
  ASSERT_EQ(a.num_submodules, b.num_submodules);
  for (int c = 0; c < a.num_cycles; ++c) {
    EXPECT_EQ(a.at(c).comb, b.at(c).comb);
    EXPECT_EQ(a.at(c).clock, b.at(c).clock);
    EXPECT_EQ(a.at(c).reg, b.at(c).reg);
  }
  ASSERT_EQ(a.submodule.size(), b.submodule.size());
  for (std::size_t i = 0; i < a.submodule.size(); ++i) {
    EXPECT_EQ(a.submodule[i].comb, b.submodule[i].comb);
    EXPECT_EQ(a.submodule[i].clock, b.submodule[i].clock);
    EXPECT_EQ(a.submodule[i].reg, b.submodule[i].reg);
  }
  std::filesystem::remove(path);
}

/// Bit-equal per-cycle and per-sub-module group powers.
void expect_same_prediction(const Prediction& a, const Prediction& b,
                            const std::string& what) {
  ASSERT_EQ(a.num_cycles, b.num_cycles) << what;
  ASSERT_EQ(a.num_submodules, b.num_submodules) << what;
  for (int c = 0; c < a.num_cycles; ++c) {
    EXPECT_EQ(a.at(c).comb, b.at(c).comb) << what << " cycle " << c;
    EXPECT_EQ(a.at(c).clock, b.at(c).clock) << what << " cycle " << c;
    EXPECT_EQ(a.at(c).reg, b.at(c).reg) << what << " cycle " << c;
  }
  ASSERT_EQ(a.submodule.size(), b.submodule.size()) << what;
  for (std::size_t i = 0; i < a.submodule.size(); ++i) {
    EXPECT_EQ(a.submodule[i].comb, b.submodule[i].comb) << what;
    EXPECT_EQ(a.submodule[i].clock, b.submodule[i].clock) << what;
    EXPECT_EQ(a.submodule[i].reg, b.submodule[i].reg) << what;
  }
}

/// Row r of `a` (encoded with cycle stride `stride`) bit-equal to row
/// r * stride of the serial oracle's `b`, extras and static context too.
void expect_same_embeddings(const DesignEmbeddings& a,
                            const DesignEmbeddings& b, std::size_t d,
                            int stride, const std::string& what) {
  ASSERT_EQ(a.num_cycles, (b.num_cycles + stride - 1) / stride) << what;
  ASSERT_EQ(a.graphs.size(), b.graphs.size()) << what;
  for (std::size_t g = 0; g < a.graphs.size(); ++g) {
    const DesignEmbeddings::PerGraph& pa = a.graphs[g];
    const DesignEmbeddings::PerGraph& pb = b.graphs[g];
    ASSERT_EQ(pa.emb.rows(), static_cast<std::size_t>(a.num_cycles)) << what;
    ASSERT_EQ(pa.extras.size(), static_cast<std::size_t>(a.num_cycles)) << what;
    for (std::size_t r = 0; r < pa.emb.rows(); ++r) {
      const std::size_t c = r * static_cast<std::size_t>(stride);
      for (std::size_t j = 0; j < d; ++j) {
        ASSERT_EQ(pa.emb.at(r, j), pb.emb.at(c, j))
            << what << " graph " << g << " cycle " << c;
      }
      EXPECT_EQ(pa.extras[r].i_comb, pb.extras[c].i_comb) << what;
      EXPECT_EQ(pa.extras[r].c_comb, pb.extras[c].c_comb) << what;
      EXPECT_EQ(pa.extras[r].i_reg, pb.extras[c].i_reg) << what;
      EXPECT_EQ(pa.extras[r].c_reg, pb.extras[c].c_reg) << what;
    }
    EXPECT_EQ(pa.st.n_comb, pb.st.n_comb) << what;
    EXPECT_EQ(pa.st.n_reg, pb.st.n_reg) << what;
  }
}

TEST_F(AtlasCoreTest, EncodeThenPredictFromEmbeddingsMatchesPredict) {
  PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);
  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 20;
  fcfg.cycle_stride = 4;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);
  const AtlasModel model(std::move(pre.encoder), std::move(models));

  const auto& wl = test_->workloads[0];
  const Prediction oracle = oracle::serial_predict(
      model, test_->gate, test_->gate_graphs, wl.gate_trace);
  const Prediction direct =
      model.predict(test_->gate, test_->gate_graphs, wl.gate_trace);
  expect_same_prediction(direct, oracle, "predict vs serial oracle");

  // The split entry points the serving feature cache relies on: encode
  // once, then reuse the embeddings for repeated head evaluation. Both
  // evaluations must be bit-identical to the serial reference.
  DesignEmbeddings emb;
  util::Arena arena;
  const AtlasModel::EncodeItem item{&test_->gate, &test_->gate_graphs,
                                    &wl.gate_trace, &emb};
  model.encode_batch(&item, 1, arena);
  EXPECT_EQ(emb.num_cycles, oracle.num_cycles);
  EXPECT_EQ(emb.graphs.size(), test_->gate_graphs.size());
  EXPECT_GT(emb.approx_bytes(), 0u);
  for (int round = 0; round < 2; ++round) {
    expect_same_prediction(
        model.predict_from_embeddings(test_->gate, test_->gate_graphs, emb),
        oracle, "split round " + std::to_string(round));
  }

  // Mismatched shapes are rejected, not silently mispredicted.
  DesignEmbeddings wrong = emb;
  wrong.graphs.pop_back();
  EXPECT_THROW(model.predict_from_embeddings(test_->gate, test_->gate_graphs, wrong),
               std::invalid_argument);
}

/// Nodes [begin, end) of `g` as a graph of their own, keeping the edges
/// that stay inside the range.
graph::SubmoduleGraph slice_graph(const graph::SubmoduleGraph& g,
                                  std::size_t begin, std::size_t end) {
  graph::SubmoduleGraph out;
  out.submodule = g.submodule;
  out.static_features = ml::Matrix(end - begin, g.static_features.cols());
  for (std::size_t i = begin; i < end; ++i) {
    out.cells.push_back(g.cells[i]);
    out.out_net.push_back(g.out_net[i]);
    out.node_type.push_back(g.node_type[i]);
    std::copy(g.static_features.row(i),
              g.static_features.row(i) + g.static_features.cols(),
              out.static_features.row(i - begin));
  }
  for (const auto& [a, b] : g.edges) {
    if (a >= begin && a < end && b >= begin && b < end) {
      out.edges.emplace_back(static_cast<std::uint32_t>(a - begin),
                             static_cast<std::uint32_t>(b - begin));
    }
  }
  return out;
}

/// Every graph of `parts` as one graph, edges offset per part.
graph::SubmoduleGraph concat_graphs(
    const std::vector<graph::SubmoduleGraph>& parts) {
  std::size_t total = 0;
  for (const graph::SubmoduleGraph& g : parts) total += g.num_nodes();
  graph::SubmoduleGraph out;
  out.submodule = parts.front().submodule;
  out.static_features = ml::Matrix(total, graph::kFeatureDim);
  for (const graph::SubmoduleGraph& g : parts) {
    const auto base = static_cast<std::uint32_t>(out.cells.size());
    for (const auto& [a, b] : g.edges) out.edges.emplace_back(a + base, b + base);
    std::copy(g.static_features.data(),
              g.static_features.data() + g.static_features.size(),
              out.static_features.row(base));
    out.cells.insert(out.cells.end(), g.cells.begin(), g.cells.end());
    out.out_net.insert(out.out_net.end(), g.out_net.begin(), g.out_net.end());
    out.node_type.insert(out.node_type.end(), g.node_type.begin(),
                         g.node_type.end());
  }
  return out;
}

TEST_F(AtlasCoreTest, EncodeBatchBitIdenticalToSerialOracle) {
  // The serving dispatcher fuses a whole batch into one encode_batch call;
  // every (design, workload) item must come out bit-identical to the
  // serial per-(graph, cycle) reference encoder — at any thread count, any
  // batch composition, any block layout, any cycle stride, and with a
  // recycled arena. Two distinct designs and two workloads per design
  // exercise mixed-shape batches; synthetic graph sets exercise the block
  // cutter: one graph larger than a whole block, and many tiny graphs
  // packed dozens to a block.
  PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);
  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 10;
  fcfg.cycle_stride = 4;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);
  const AtlasModel model(std::move(pre.encoder), std::move(models));
  const std::size_t block_rows = encode_block_rows(model.encoder());

  // One graph of more than two whole blocks (the design's graphs repeated).
  std::vector<graph::SubmoduleGraph> big_parts;
  std::size_t big_nodes = 0;
  while (big_nodes <= 2 * block_rows) {
    for (const graph::SubmoduleGraph& g : test_->gate_graphs) {
      big_parts.push_back(g);
      big_nodes += g.num_nodes();
    }
  }
  const std::vector<graph::SubmoduleGraph> big{concat_graphs(big_parts)};
  ASSERT_GT(big.front().num_nodes(), block_rows);
  // Every graph cut into pieces of at most three nodes.
  std::vector<graph::SubmoduleGraph> tiny;
  for (const graph::SubmoduleGraph& g : test_->gate_graphs) {
    for (std::size_t b = 0; b < g.num_nodes(); b += 3) {
      tiny.push_back(slice_graph(g, b, std::min(g.num_nodes(), b + 3)));
    }
  }
  ASSERT_GE(block_rows / 3, 10u);  // dozens of tiny graphs share a block

  struct Item {
    const netlist::Netlist* gate;
    const std::vector<graph::SubmoduleGraph>* graphs;
    const sim::ToggleTrace* trace;
  };
  std::vector<Item> inputs;
  for (const DesignData* d : {test_, train_}) {
    for (const auto& wl : d->workloads) {
      inputs.push_back(Item{&d->gate, &d->gate_graphs, &wl.gate_trace});
      if (inputs.size() >= 4) break;
    }
  }
  ASSERT_GE(inputs.size(), 2u);
  const sim::ToggleTrace* trace = &test_->workloads[0].gate_trace;
  inputs.push_back(Item{&test_->gate, &big, trace});
  inputs.push_back(Item{&test_->gate, &tiny, trace});

  // The full batch spans many blocks.
  std::size_t batch_rows = 0;
  for (const Item& it : inputs) {
    for (const graph::SubmoduleGraph& g : *it.graphs) {
      batch_rows += g.num_nodes() * static_cast<std::size_t>(it.trace->num_cycles());
    }
  }
  ASSERT_GT(batch_rows, 16 * block_rows);

  std::vector<DesignEmbeddings> solo;
  for (const Item& it : inputs) {
    solo.push_back(
        oracle::serial_encode(model.encoder(), *it.gate, *it.graphs, *it.trace));
  }

  const std::size_t d = model.encoder().dim();
  const auto expect_same = [d](const DesignEmbeddings& a,
                               const DesignEmbeddings& b, std::size_t idx,
                               int stride = 1) {
    expect_same_embeddings(a, b, d, stride, "item " + std::to_string(idx));
  };

  const obs::Counter& pool_batches =
      obs::Registry::global().counter("atlas_parallel_batches_total");
  util::Arena arena;
  for (const int threads : {1, 2, 3, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::set_global_threads(threads);
    // Full batch, then each item alone: composition must not matter.
    std::vector<DesignEmbeddings> out(inputs.size());
    std::vector<AtlasModel::EncodeItem> items;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      items.push_back(AtlasModel::EncodeItem{inputs[i].gate, inputs[i].graphs,
                                             inputs[i].trace, &out[i]});
    }
    // One region for the per-graph setup and one over row blocks, however
    // many blocks the batch has.
    const std::uint64_t batches0 = pool_batches.value();
    model.encode_batch(items.data(), items.size(), arena);
    EXPECT_LE(pool_batches.value() - batches0, 2u);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      expect_same(out[i], solo[i], i);
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      arena.reset();  // recycled scratch must not change results
      DesignEmbeddings single;
      items[i].out = &single;
      model.encode_batch(&items[i], 1, arena);
      expect_same(single, solo[i], i);
    }

    // Strided items (fine-tuning's training rows) pick exactly the oracle's
    // rows at cycles 0, s, 2s, ...
    DesignEmbeddings strided;
    AtlasModel::EncodeItem one = items.front();
    one.out = &strided;
    one.cycle_stride = 3;
    model.encode_batch(&one, 1, arena);
    expect_same(strided, solo.front(), 0, 3);
    arena.reset();

    // The whole predict() path against the serial reference.
    expect_same_prediction(
        model.predict(*inputs[0].gate, *inputs[0].graphs, *inputs[0].trace),
        oracle::serial_predict(model, *inputs[0].gate, *inputs[0].graphs,
                               *inputs[0].trace),
        "predict at threads=" + std::to_string(threads));
  }
  util::set_global_threads(0);
}

/// Distinct per-graph toggle vectors among encoded cycles 0, stride,
/// 2 * stride, ...: the reference for encode_batch's reuse, by brute force
/// over whole vectors.
std::size_t distinct_toggle_vectors(const graph::SubmoduleGraph& g,
                                    const sim::ToggleTrace& trace, int stride) {
  std::set<std::vector<int>> seen;
  for (int c = 0; c < trace.num_cycles(); c += stride) {
    std::vector<int> v;
    for (const netlist::NetId net : g.out_net) {
      v.push_back(net == netlist::kNoNet ? -1 : trace.transitions(c, net));
    }
    seen.insert(std::move(v));
  }
  return seen.size();
}

/// Cycle `to` of `t` becomes a copy of cycle `from`.
void copy_cycle(sim::ToggleTrace& t, std::size_t num_nets, int to, int from) {
  for (netlist::NetId n = 0; n < num_nets; ++n) {
    t.set(to, n, t.value(from, n), t.transitions(from, n));
  }
}

TEST_F(AtlasCoreTest, EncodeBatchReusesDuplicateCyclesBitIdentically) {
  // encode_batch projects each (node, toggle code) once into a per-graph
  // table and encodes only the first of identical cycles. On crafted
  // traces every row must still equal the serial oracle's, at any thread
  // count, and the counters must count exactly the duplicate cycles.
  ml::SgFormer::Config ecfg;
  ecfg.in_dim = graph::kFeatureDim;
  ecfg.dim = 16;
  ecfg.seed = 7;
  const ml::SgFormer enc(ecfg);
  const std::size_t d = enc.dim();
  // The post-layout netlist: its clock tree gives graph nodes clock nets.
  const netlist::Netlist& gate = test_->layout.netlist;
  const std::size_t num_nets = gate.num_nets();
  const std::vector<bool> clock = sim::CycleSimulator(gate).clock_net_mask();
  const std::vector<graph::SubmoduleGraph>& graphs = test_->post_graphs;

  // 70 cycles: two runs of at most 64 encoded cycles per graph. Random
  // codes on ~30% of nets per cycle (clock nets 2, data nets 1 or 2), then
  // idle cycles and copies: adjacent (1 <- 0), across the run boundary
  // (64, 65 <- 63), far apart (69 <- 3), and cycles the stride-10 item
  // encodes (30 <- 10; idle 20 and 40).
  constexpr int kCycles = 70;
  const auto crafted = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    sim::ToggleTrace t(num_nets, kCycles);
    for (int c = 0; c < kCycles; ++c) {
      for (netlist::NetId n = 0; n < num_nets; ++n) {
        if (!rng.next_bool(0.3)) continue;
        const int code = clock[n] ? 2 : 1 + static_cast<int>(rng.next_below(2));
        t.set(c, n, rng.next_bool(), code);
      }
    }
    for (const int c : {20, 40, 41, 42, 43, 44, 45}) {
      for (netlist::NetId n = 0; n < num_nets; ++n) t.set(c, n, false, 0);
    }
    for (const auto& [to, from] : std::vector<std::pair<int, int>>{
             {1, 0}, {64, 63}, {65, 63}, {69, 3}, {30, 10}}) {
      copy_cycle(t, num_nets, to, from);
    }
    return t;
  };
  const sim::ToggleTrace trace_a = crafted(11);
  const sim::ToggleTrace trace_b = crafted(12);

  // The graphs with every fourth node cut from its output net; such a node
  // keeps its static row, here with a nonzero toggle channel.
  std::vector<graph::SubmoduleGraph> no_net = graphs;
  std::size_t cut = 0;
  for (graph::SubmoduleGraph& g : no_net) {
    for (std::size_t i = 0; i < g.num_nodes(); i += 4, ++cut) {
      g.out_net[i] = netlist::kNoNet;
      g.static_features.at(i, graph::kToggleOffset) = 0.75f;
    }
  }
  ASSERT_GT(cut, 0u);

  // The trace drives all three codes on graph nodes, clock nets included.
  std::set<int> codes;
  bool clock_node = false;
  for (const graph::SubmoduleGraph& g : graphs) {
    for (const netlist::NetId net : g.out_net) {
      if (net == netlist::kNoNet) continue;
      clock_node = clock_node || clock[net];
      for (int c = 0; c < kCycles; ++c) codes.insert(trace_a.transitions(c, net));
    }
  }
  EXPECT_TRUE(clock_node);
  EXPECT_EQ(codes, (std::set<int>{0, 1, 2}));

  std::vector<DesignEmbeddings> oracles;
  for (const auto& [g, t] :
       {std::pair{&graphs, &trace_a}, {&graphs, &trace_b}, {&no_net, &trace_a}}) {
    oracles.push_back(oracle::serial_encode(enc, gate, *g, *t));
  }
  struct Input {
    const std::vector<graph::SubmoduleGraph>* graphs;
    const sim::ToggleTrace* trace;
    int stride;
    std::size_t oracle;
  };
  // Two traces on one design, the no-net graphs, and a strided item.
  const std::vector<Input> inputs = {{&graphs, &trace_a, 1, 0},
                                     {&graphs, &trace_b, 1, 1},
                                     {&no_net, &trace_a, 1, 2},
                                     {&graphs, &trace_a, 10, 0}};
  std::size_t expect_encoded = 0;
  std::size_t expect_reused = 0;
  for (const Input& in : inputs) {
    for (const graph::SubmoduleGraph& g : *in.graphs) {
      const std::size_t rows =
          static_cast<std::size_t>((kCycles + in.stride - 1) / in.stride);
      const std::size_t distinct = distinct_toggle_vectors(g, *in.trace, in.stride);
      expect_encoded += distinct;
      expect_reused += rows - distinct;
    }
  }
  // Every crafted duplicate at least, in every graph of the stride-1 items.
  EXPECT_GE(expect_reused, 3 * graphs.size() * 11);

  obs::Registry& reg = obs::Registry::global();
  const obs::Counter& encoded = reg.counter("atlas_model_encoded_segments_total");
  const obs::Counter& reused = reg.counter("atlas_model_reused_segments_total");
  const obs::Counter& forwards = reg.counter("atlas_ml_sgformer_forward_total");
  const obs::Counter& pool_batches = reg.counter("atlas_parallel_batches_total");
  util::Arena arena;
  for (const int threads : {1, 2, 3, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::set_global_threads(threads);
    std::vector<DesignEmbeddings> out(inputs.size());
    std::vector<EncodeItem> items;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      items.push_back(EncodeItem{&gate, inputs[i].graphs, inputs[i].trace,
                                 &out[i], inputs[i].stride});
    }
    const std::uint64_t encoded0 = encoded.value();
    const std::uint64_t reused0 = reused.value();
    const std::uint64_t forwards0 = forwards.value();
    const std::uint64_t batches0 = pool_batches.value();
    encode_batch(enc, items.data(), items.size(), arena);
    EXPECT_LE(pool_batches.value() - batches0, 2u);
    EXPECT_EQ(encoded.value() - encoded0, expect_encoded);
    EXPECT_EQ(reused.value() - reused0, expect_reused);
    // The kernel ran once per encoded segment, never for a copied one.
    EXPECT_EQ(forwards.value() - forwards0, expect_encoded);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      expect_same_embeddings(out[i], oracles[inputs[i].oracle], d,
                             inputs[i].stride,
                             "item " + std::to_string(i));
    }
  }
  util::set_global_threads(0);

  // An idle trace: each graph encodes its first cycle and copies it to
  // every later one.
  const sim::ToggleTrace idle(num_nets, 70);
  DesignEmbeddings idle_out;
  const EncodeItem idle_item{&gate, &graphs, &idle, &idle_out};
  const std::uint64_t encoded0 = encoded.value();
  const std::uint64_t reused0 = reused.value();
  encode_batch(enc, &idle_item, 1, arena);
  EXPECT_EQ(encoded.value() - encoded0, graphs.size());
  EXPECT_EQ(reused.value() - reused0, graphs.size() * 69);
  expect_same_embeddings(idle_out, oracle::serial_encode(enc, gate, graphs, idle),
                         d, 1, "idle");
}

TEST_F(AtlasCoreTest, MemoryModelAccurate) {
  MemoryPowerModel mem;
  mem.fit({train_});
  EXPECT_TRUE(mem.fitted());
  // Evaluate on the unseen design.
  const auto& wl = test_->workloads[0];
  const std::vector<double> pred = mem.predict(test_->gate, wl.gate_trace);
  const std::vector<double> label =
      power::series_of(wl.golden, power::Series::kMemory);
  const double err = power::mape(label, pred);
  // Paper Sec. VI-B: ~0.5% error; the macro is unchanged by layout, so even
  // a scale-fitted model lands within a few percent here.
  EXPECT_LT(err, 6.0);
}

TEST_F(AtlasCoreTest, MetricsHelpers) {
  EXPECT_NEAR(correlation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(correlation({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
  EXPECT_THROW(correlation({1}, {1, 2}), std::invalid_argument);
  EXPECT_NEAR(nrmse({10, 10}, {9, 11}), 10.0, 1e-9);
  EXPECT_THROW(nrmse({}, {}), std::invalid_argument);
  const GroupMape m{1, 2, 3, 4, 5};
  const std::string s = format_group_mape(m);
  EXPECT_NE(s.find("total=5.00%"), std::string::npos);
}

TEST_F(AtlasCoreTest, StructuralSplitterCoversParsedNetlist) {
  // Strip sub-module tags by writing Verilog without attributes: simulate a
  // third-party netlist, then re-split structurally.
  netlist::Netlist stripped = test_->gate;
  for (netlist::CellInstId id = 0; id < stripped.num_cells(); ++id) {
    stripped.set_cell_submodule(id, netlist::kNoSubmodule);
  }
  const int created = assign_submodules_by_structure(stripped, 120);
  EXPECT_GT(created, 3);
  for (netlist::CellInstId id = 0; id < stripped.num_cells(); ++id) {
    EXPECT_NE(stripped.cell(id).submodule, netlist::kNoSubmodule);
  }
  // Graphs build fine on the auto-partition.
  const auto graphs = graph::build_submodule_graphs(stripped);
  std::size_t covered = 0;
  for (const auto& g : graphs) covered += g.num_nodes();
  EXPECT_EQ(covered, stripped.num_cells());
}

TEST_F(AtlasCoreTest, PredictionComponentRollup) {
  PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);
  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 20;
  fcfg.cycle_stride = 4;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);
  const AtlasModel model(std::move(pre.encoder), std::move(models));
  const auto& wl = test_->workloads[0];
  const Prediction pred =
      model.predict(test_->gate, test_->gate_graphs, wl.gate_trace);
  const auto comps = pred.component_average(test_->gate);
  ASSERT_EQ(comps.size(), test_->gate.components().size());
  // Component totals sum to the average design total.
  double total = 0.0;
  for (const auto& c : comps) total += c.total();
  double design_avg = 0.0;
  for (int c = 0; c < pred.num_cycles; ++c) design_avg += pred.at(c).total();
  design_avg /= pred.num_cycles;
  EXPECT_NEAR(total, design_avg, design_avg * 1e-6);
}

TEST_F(AtlasCoreTest, LogicConesOneConePerRegister) {
  const auto cones = extract_logic_cones(test_->gate);
  std::size_t regs = 0;
  for (netlist::CellInstId id = 0; id < test_->gate.num_cells(); ++id) {
    regs += liberty::is_sequential(test_->gate.lib_cell(id).func);
  }
  EXPECT_EQ(cones.size(), regs);
  for (const auto& c : cones) {
    ASSERT_FALSE(c.cells.empty());
    EXPECT_EQ(c.cells.front(), c.root);
    EXPECT_TRUE(liberty::is_sequential(test_->gate.lib_cell(c.root).func));
    // Cone members other than the root are combinational.
    for (std::size_t i = 1; i < c.cells.size(); ++i) {
      EXPECT_TRUE(liberty::is_combinational(test_->gate.lib_cell(c.cells[i]).func));
    }
  }
}

TEST_F(AtlasCoreTest, LogicConesOverlapSubstantially) {
  // The paper's Sec. III-A claim: cones overlap, so cone-power sums
  // over-count true power, while the sub-module partition is exact.
  const auto cones = extract_logic_cones(test_->gate);
  const double overlap = cone_overlap_factor(cones);
  EXPECT_GT(overlap, 1.3) << "re-convergent fan-out must create overlap";
  const auto& wl = test_->workloads[0];
  const double overcount =
      cone_power_overcount(test_->gate, cones, wl.gate_trace);
  EXPECT_GT(overcount, 1.1);
}

TEST_F(AtlasCoreTest, LogicConesStopAtStateBoundaries) {
  const auto cones = extract_logic_cones(test_->gate);
  for (const auto& c : cones) {
    for (std::size_t i = 1; i < c.cells.size(); ++i) {
      EXPECT_FALSE(liberty::is_macro(test_->gate.lib_cell(c.cells[i]).func));
    }
  }
}

}  // namespace
}  // namespace atlas::core
