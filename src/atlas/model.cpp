#include "atlas/model.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace atlas::core {

using graph::SubmoduleGraph;
using ml::Matrix;

AtlasModel::AtlasModel(ml::SgFormer encoder, GroupModels models)
    : encoder_(std::move(encoder)), models_(std::move(models)) {}

std::vector<power::GroupPower> Prediction::component_average(
    const netlist::Netlist& gate) const {
  std::vector<power::GroupPower> avg(gate.components().size());
  if (num_cycles == 0) return avg;
  for (int c = 0; c < num_cycles; ++c) {
    for (std::size_t sm = 0; sm < num_submodules; ++sm) {
      const int comp = gate.submodules()[sm].component;
      if (comp < 0) continue;
      avg[static_cast<std::size_t>(comp)] +=
          at(c, static_cast<netlist::SubmoduleId>(sm));
    }
  }
  for (power::GroupPower& g : avg) {
    const double inv = 1.0 / num_cycles;
    g.comb *= inv;
    g.reg *= inv;
    g.clock *= inv;
    g.memory *= inv;
  }
  return avg;
}

std::size_t DesignEmbeddings::approx_bytes() const {
  std::size_t total = sizeof(*this);
  for (const PerGraph& g : graphs) {
    total += sizeof(PerGraph) + g.emb.size() * sizeof(float) +
             g.extras.size() * sizeof(CycleExtras) +
             (g.st.internal_fj.size() + g.st.cap_ff.size()) * sizeof(float);
  }
  return total;
}

Prediction AtlasModel::predict(const netlist::Netlist& gate,
                               const std::vector<SubmoduleGraph>& graphs,
                               const sim::ToggleTrace& gate_trace) const {
  util::Arena arena;
  DesignEmbeddings emb;
  const EncodeItem item{&gate, &graphs, &gate_trace, &emb};
  encode_batch(&item, 1, arena);
  return predict_from_embeddings(gate, graphs, emb, &arena);
}

void AtlasModel::encode_batch(const EncodeItem* items, std::size_t n,
                              util::Arena& arena) const {
  core::encode_batch(encoder_, items, n, arena);
}

void encode_batch(const ml::SgFormer& encoder, const EncodeItem* items,
                  std::size_t n, util::Arena& arena) {
  obs::ObsSpan span("model", "encode_batch");
  static obs::Counter* encodes =
      &obs::Registry::global().counter("atlas_model_encodes_total");
  encodes->inc(n);

  const std::size_t d = encoder.dim();

  // Per-graph setup: static context, extras, the output matrix, and the
  // shared normalized adjacency (cycle-invariant, built once per graph
  // instead of once per forward). All independent across graphs.
  struct GraphRef {
    const netlist::Netlist* gate = nullptr;
    const SubmoduleGraph* g = nullptr;
    const sim::ToggleTrace* trace = nullptr;
    int stride = 1;
    int rows = 0;  // encoded cycles
    DesignEmbeddings::PerGraph* pg = nullptr;
    ml::SgFormer::NormAdjacency adj;
  };
  std::vector<GraphRef> grefs;
  for (std::size_t i = 0; i < n; ++i) {
    const EncodeItem& it = items[i];
    DesignEmbeddings& out = *it.out;
    const int stride = std::max(1, it.cycle_stride);
    out.num_cycles = (it.trace->num_cycles() + stride - 1) / stride;
    out.graphs.assign(it.graphs->size(), {});
    for (std::size_t gi = 0; gi < it.graphs->size(); ++gi) {
      GraphRef r;
      r.gate = it.gate;
      r.g = &(*it.graphs)[gi];
      r.trace = it.trace;
      r.stride = stride;
      r.rows = out.num_cycles;
      r.pg = &out.graphs[gi];
      grefs.push_back(std::move(r));
    }
  }
  util::parallel_for(grefs.size(), 1, [&](std::size_t i) {
    GraphRef& r = grefs[i];
    DesignEmbeddings::PerGraph& pg = *r.pg;
    pg.st = compute_submodule_static(*r.gate, *r.g);
    const std::size_t rows = static_cast<std::size_t>(r.rows);
    pg.emb = Matrix(rows, d);
    pg.extras.resize(rows);
    for (std::size_t k = 0; k < rows; ++k) {
      pg.extras[k] = compute_cycle_extras(*r.g, pg.st, *r.trace,
                                          static_cast<int>(k) * r.stride);
    }
    r.adj = ml::SgFormer::build_norm_adjacency(r.g->num_nodes(), &r.g->edges);
  });

  // Flatten to (graph, encoded cycle) segments and cut them into row
  // blocks. A block never splits a segment, and each segment's result
  // depends on its own rows alone, so the split points cannot affect
  // numerics. The index arrays live in the caller's arena until return.
  std::size_t num_segs = 0;
  for (const GraphRef& r : grefs) num_segs += static_cast<std::size_t>(r.rows);
  if (num_segs == 0) return;
  const util::Arena::Marker marker = arena.mark();
  struct Seg {
    const GraphRef* ref = nullptr;
    int row = 0;
  };
  ml::SgFormer::Segment* segs =
      arena.alloc_array<ml::SgFormer::Segment>(num_segs);
  Seg* meta = arena.alloc_array<Seg>(num_segs);
  std::size_t s = 0;
  for (const GraphRef& r : grefs) {
    for (int k = 0; k < r.rows; ++k, ++s) {
      segs[s] = ml::SgFormer::Segment{r.g->num_nodes(), &r.adj};
      meta[s] = Seg{&r, k};
    }
  }
  const std::size_t max_rows = encode_block_rows(encoder);
  std::size_t* block_begin = arena.alloc_array<std::size_t>(num_segs + 1);
  std::size_t num_blocks = 0;
  for (std::size_t s0 = 0; s0 < num_segs; ++num_blocks) {
    block_begin[num_blocks] = s0;
    std::size_t rows = segs[s0].num_nodes;
    for (++s0; s0 < num_segs && rows + segs[s0].num_nodes <= max_rows; ++s0) {
      rows += segs[s0].num_nodes;
    }
  }
  block_begin[num_blocks] = num_segs;

  // One pool task per block: fill features, run the serial fused kernel,
  // copy out the graph embeddings. Scratch comes from the executing
  // thread's own arena, recycled per block (tasks on one thread never
  // overlap: forward_fused opens no region).
  const std::size_t feat_dim = static_cast<std::size_t>(graph::kFeatureDim);
  util::parallel_for(num_blocks, 1, [&](std::size_t b) {
    thread_local util::Arena scratch;
    scratch.reset();
    const std::size_t s0 = block_begin[b];
    const std::size_t count = block_begin[b + 1] - s0;
    std::size_t rows = 0;
    for (std::size_t k = 0; k < count; ++k) rows += segs[s0 + k].num_nodes;
    float* feats = scratch.alloc_array<float>(rows * feat_dim);
    float* gemb = scratch.alloc_array<float>(count * d);
    float* f = feats;
    for (std::size_t k = 0; k < count; ++k) {
      const Seg& m = meta[s0 + k];
      graph::fill_cycle_features(*m.ref->g, *m.ref->trace,
                                 m.row * m.ref->stride, f);
      f += segs[s0 + k].num_nodes * feat_dim;
    }
    encoder.forward_fused(segs + s0, count, feats, gemb, scratch);
    for (std::size_t k = 0; k < count; ++k) {
      const Seg& m = meta[s0 + k];
      std::copy(gemb + k * d, gemb + (k + 1) * d,
                m.ref->pg->emb.row(static_cast<std::size_t>(m.row)));
    }
  });
  arena.rewind(marker);
}

std::size_t encode_block_rows(const ml::SgFormer& encoder) {
  // A block's feature rows plus forward_fused's eight activation buffers
  // fit a fixed 256 KiB scratch budget (~230 rows at dim 32): small enough
  // that every thread's block stays in its core's L2 beside the weights,
  // and that per-thread arenas add little to peak RSS. Blocks are also the
  // unit of parallelism, so smaller blocks balance the pool better.
  constexpr std::size_t kBlockScratchBytes = std::size_t{256} << 10;
  const std::size_t feat_dim = static_cast<std::size_t>(graph::kFeatureDim);
  return kBlockScratchBytes /
         (encoder.fused_scratch_bytes_per_row() + feat_dim * sizeof(float));
}

Prediction AtlasModel::predict_from_embeddings(
    const netlist::Netlist& gate, const std::vector<SubmoduleGraph>& graphs,
    const DesignEmbeddings& emb, util::Arena* arena) const {
  if (emb.graphs.size() != graphs.size()) {
    throw std::invalid_argument(
        "predict_from_embeddings: embeddings/graphs mismatch");
  }
  obs::ObsSpan span("model", "gbdt_heads");
  static obs::Counter* predictions =
      &obs::Registry::global().counter("atlas_model_predictions_total");
  predictions->inc();
  Prediction pred;
  pred.num_cycles = emb.num_cycles;
  pred.num_submodules = gate.submodules().size();
  pred.design.assign(static_cast<std::size_t>(pred.num_cycles), {});
  pred.submodule.assign(
      static_cast<std::size_t>(pred.num_cycles) * pred.num_submodules, {});

  const std::size_t d = encoder_.dim();
  const std::size_t cycles = static_cast<std::size_t>(pred.num_cycles);
  const std::size_t ncg = graphs.size() * cycles;
  if (ncg == 0) return pred;

  // Assemble head feature rows for every (graph, cycle) into one block —
  // the same fill_*_row layout fine-tuning trained on — and evaluate each
  // forest with its batched SoA traversal.
  util::Arena local;
  util::Arena& a = arena != nullptr ? *arena : local;
  const util::Arena::Marker marker = a.mark();
  const std::size_t cdim = ct_dim(d);
  const std::size_t odim = comb_dim(d);
  const std::size_t rdim = reg_dim(d);
  float* ct_rows = a.alloc_array<float>(ncg * cdim);
  float* comb_rows = a.alloc_array<float>(ncg * odim);
  float* reg_rows = a.alloc_array<float>(ncg * rdim);
  double* out_ct = a.alloc_array<double>(ncg);
  double* out_comb = a.alloc_array<double>(ncg);
  double* out_reg = a.alloc_array<double>(ncg);

  util::parallel_for(graphs.size(), 1, [&](std::size_t gi) {
    const DesignEmbeddings::PerGraph& pg = emb.graphs[gi];
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::size_t r = gi * cycles + c;
      const float* e = pg.emb.row(c);
      fill_ct_row(e, d, ct_rows + r * cdim);
      fill_comb_row(e, d, pg.st, pg.extras[c], comb_rows + r * odim);
      fill_reg_row(e, d, pg.st, pg.extras[c], reg_rows + r * rdim);
    }
  });

  util::parallel_for_chunks(ncg, 512, [&](std::size_t r0, std::size_t r1) {
    models_.f_ct.predict_rows(ct_rows + r0 * cdim, r1 - r0, cdim, out_ct + r0);
    models_.f_comb.predict_rows(comb_rows + r0 * odim, r1 - r0, odim,
                                out_comb + r0);
    models_.f_reg.predict_rows(reg_rows + r0 * rdim, r1 - r0, rdim,
                               out_reg + r0);
  });

  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const SubmoduleGraph& g = graphs[gi];
    const DesignEmbeddings::PerGraph& pg = emb.graphs[gi];
    const SubmoduleStatic& st = pg.st;
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::size_t r = gi * cycles + c;
      const CycleExtras& ex = pg.extras[c];
      power::GroupPower p;
      // The regressors predict ratios to the analytic gate-level estimates;
      // multiply back and clamp at zero (power cannot be negative).
      p.clock = std::max(0.0, out_ct[r]) * ct_normalizer(st);
      p.comb = std::max(0.0, out_comb[r]) * (comb_physics_uw(st, ex) + kRatioEps);
      p.reg = std::max(0.0, out_reg[r]) * (reg_physics_uw(st, ex) + kRatioEps);
      pred.submodule[c * pred.num_submodules +
                     static_cast<std::size_t>(g.submodule)] = p;
      pred.design[c] += p;
    }
  }
  a.rewind(marker);
  return pred;
}

void AtlasModel::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("AtlasModel::save: cannot open " + path);
  util::write_header(os, "ATLS", 1);
  encoder_.save(os);
  models_.f_ct.save(os);
  models_.f_comb.save(os);
  models_.f_reg.save(os);
  if (!os) throw std::runtime_error("AtlasModel::save: write failed");
}

AtlasModel AtlasModel::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("AtlasModel::load: cannot open " + path);
  util::read_header(is, "ATLS");
  ml::SgFormer encoder = ml::SgFormer::load(is);
  GroupModels models{ml::GbdtRegressor::load(is), ml::GbdtRegressor::load(is),
                     ml::GbdtRegressor::load(is)};
  return AtlasModel(std::move(encoder), std::move(models));
}

}  // namespace atlas::core
