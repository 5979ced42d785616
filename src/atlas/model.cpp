#include "atlas/model.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

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

namespace {

// Encoded cycles per region-2 task: a fixed constant, so the task layout
// depends only on the batch, and large enough that rebuilding a graph's
// toggle-projection table per task stays a few percent of the task's work.
constexpr int kTaskRows = 64;

// Toggle code of node i at `cycle`: the transitions on its output net
// (0, 1 or 2), or 0 for a node with no output net, which keeps its static
// row. Indexes the node's projection-table row.
std::size_t toggle_code(const SubmoduleGraph& g, const sim::ToggleTrace& trace,
                        int cycle, std::size_t i) {
  const netlist::NetId net = g.out_net[i];
  return net == netlist::kNoNet
             ? 0
             : static_cast<std::size_t>(trace.transitions(cycle, net));
}

std::uint64_t toggle_hash(const SubmoduleGraph& g,
                          const sim::ToggleTrace& trace, int cycle) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    h = (h ^ toggle_code(g, trace, cycle, i)) * 1099511628211ull;
  }
  return h;
}

bool same_toggles(const SubmoduleGraph& g, const sim::ToggleTrace& trace,
                  int a, int b) {
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    if (toggle_code(g, trace, a, i) != toggle_code(g, trace, b, i)) {
      return false;
    }
  }
  return true;
}

// A graph's toggle-projection table from `scratch`: row i * 3 + t of each
// of the four H/Q/K/V planes (3N rows each) holds node i's projection with
// its toggle channel at t / 2 — exactly the row fill_cycle_features writes
// for a cycle where node i's output net makes t transitions.
const float* build_toggle_table(const ml::SgFormer& encoder,
                                const SubmoduleGraph& g, util::Arena& scratch) {
  const std::size_t feat_dim = static_cast<std::size_t>(graph::kFeatureDim);
  const std::size_t rows = 3 * g.num_nodes();
  float* table = scratch.alloc_array<float>(4 * rows * encoder.dim());
  const util::Arena::Marker marker = scratch.mark();
  float* x = scratch.alloc_array<float>(rows * feat_dim);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const float* src = g.static_features.row(i);
    for (int t = 0; t < 3; ++t) {
      float* row = x + (3 * i + static_cast<std::size_t>(t)) * feat_dim;
      std::copy(src, src + feat_dim, row);
      if (g.out_net[i] != netlist::kNoNet) {
        row[graph::kToggleOffset] = static_cast<float>(t) * 0.5f;
      }
    }
  }
  encoder.project_rows(x, rows, table);
  scratch.rewind(marker);
  return table;
}

}  // namespace

void encode_batch(const ml::SgFormer& encoder, const EncodeItem* items,
                  std::size_t n, util::Arena& arena) {
  obs::ObsSpan span("model", "encode_batch");
  static obs::Counter* encodes =
      &obs::Registry::global().counter("atlas_model_encodes_total");
  static obs::Counter* encoded_segments =
      &obs::Registry::global().counter("atlas_model_encoded_segments_total");
  static obs::Counter* reused_segments =
      &obs::Registry::global().counter("atlas_model_reused_segments_total");
  encodes->inc(n);

  const std::size_t d = encoder.dim();

  // Per-graph setup: static context, extras, the output matrix, the shared
  // normalized adjacency (cycle-invariant, built once per graph instead of
  // once per forward), and each encoded cycle's representative: the first
  // encoded cycle with the same toggle vector. All independent across
  // graphs.
  struct GraphRef {
    const netlist::Netlist* gate = nullptr;
    const SubmoduleGraph* g = nullptr;
    const sim::ToggleTrace* trace = nullptr;
    int stride = 1;
    int rows = 0;  // encoded cycles
    DesignEmbeddings::PerGraph* pg = nullptr;
    ml::SgFormer::NormAdjacency adj;
    std::vector<int> rep;  // [row] -> representative row (rep[r] <= r)
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
    // Hash each toggle vector, then confirm equality: a hash collision
    // only costs a missed reuse, never a wrong row.
    r.rep.resize(rows);
    std::unordered_map<std::uint64_t, int> first;
    for (int k = 0; k < r.rows; ++k) {
      const int cycle = k * r.stride;
      const auto [at, inserted] =
          first.try_emplace(toggle_hash(*r.g, *r.trace, cycle), k);
      r.rep[static_cast<std::size_t>(k)] =
          !inserted && same_toggles(*r.g, *r.trace, at->second * r.stride, cycle)
              ? at->second
              : k;
    }
  });

  // Cut every graph's encoded cycles into runs of at most kTaskRows. The
  // task array lives in the caller's arena until return.
  std::size_t num_tasks = 0;
  for (const GraphRef& r : grefs) {
    num_tasks += static_cast<std::size_t>((r.rows + kTaskRows - 1) / kTaskRows);
  }
  if (num_tasks == 0) return;
  const util::Arena::Marker marker = arena.mark();
  struct Task {
    const GraphRef* ref = nullptr;
    int begin = 0;
    int end = 0;
  };
  Task* tasks = arena.alloc_array<Task>(num_tasks);
  std::size_t t = 0;
  for (const GraphRef& r : grefs) {
    for (int k = 0; k < r.rows; k += kTaskRows) {
      tasks[t++] = Task{&r, k, std::min(r.rows, k + kTaskRows)};
    }
  }

  // One pool task per run: build the graph's toggle-projection table, then
  // encode the run's representative cycles in row blocks — gather each
  // node's H/Q/K/V rows from the table by toggle code, run the per-segment
  // tail, copy out the embeddings. Table and block scratch come from the
  // executing thread's own arena, recycled per task (tasks on one thread
  // never overlap: the kernels open no region). Each segment's result
  // depends on its own rows alone, so run and block boundaries cannot
  // affect numerics.
  const std::size_t max_rows = encode_block_rows(encoder);
  util::parallel_for(num_tasks, 1, [&](std::size_t ti) {
    const Task& task = tasks[ti];
    const GraphRef& r = *task.ref;
    const SubmoduleGraph& g = *r.g;
    const std::size_t nodes = g.num_nodes();
    thread_local util::Arena scratch;
    scratch.reset();
    const float* table = build_toggle_table(encoder, g, scratch);
    const std::size_t table_plane = 3 * nodes * d;
    int* reps = scratch.alloc_array<int>(
        static_cast<std::size_t>(task.end - task.begin));
    std::size_t num_reps = 0;
    for (int k = task.begin; k < task.end; ++k) {
      if (r.rep[static_cast<std::size_t>(k)] == k) reps[num_reps++] = k;
    }
    const std::size_t per_block =
        std::max<std::size_t>(1, max_rows / std::max<std::size_t>(1, nodes));
    const util::Arena::Marker block_marker = scratch.mark();
    for (std::size_t b0 = 0; b0 < num_reps; b0 += per_block) {
      const std::size_t count = std::min(per_block, num_reps - b0);
      const std::size_t plane = count * nodes * d;
      float* hqkv = scratch.alloc_array<float>(4 * plane);
      float* gemb = scratch.alloc_array<float>(count * d);
      ml::SgFormer::Segment* segs =
          scratch.alloc_array<ml::SgFormer::Segment>(count);
      for (std::size_t s = 0; s < count; ++s) {
        segs[s] = ml::SgFormer::Segment{nodes, &r.adj};
        const int cycle = reps[b0 + s] * r.stride;
        for (std::size_t i = 0; i < nodes; ++i) {
          const float* src =
              table + (3 * i + toggle_code(g, *r.trace, cycle, i)) * d;
          float* dst = hqkv + (s * nodes + i) * d;
          for (int p = 0; p < 4; ++p) {
            std::copy(src + p * table_plane, src + p * table_plane + d,
                      dst + p * plane);
          }
        }
      }
      encoder.forward_tail(segs, count, hqkv, gemb, scratch);
      for (std::size_t s = 0; s < count; ++s) {
        std::copy(gemb + s * d, gemb + (s + 1) * d,
                  r.pg->emb.row(static_cast<std::size_t>(reps[b0 + s])));
      }
      scratch.rewind(block_marker);
    }
  });
  arena.rewind(marker);

  // Duplicate cycles copy their representative's row (always an earlier
  // row, so this runs after every task has written it).
  std::size_t reused = 0;
  std::size_t total = 0;
  for (const GraphRef& r : grefs) {
    total += static_cast<std::size_t>(r.rows);
    for (std::size_t k = 0; k < r.rep.size(); ++k) {
      const std::size_t from = static_cast<std::size_t>(r.rep[k]);
      if (from == k) continue;
      std::copy(r.pg->emb.row(from), r.pg->emb.row(from) + d, r.pg->emb.row(k));
      ++reused;
    }
  }
  encoded_segments->inc(total - reused);
  reused_segments->inc(reused);
}

std::size_t encode_block_rows(const ml::SgFormer& encoder) {
  // A block's gathered H/Q/K/V rows plus forward_tail's four activation
  // buffers fit a fixed 256 KiB scratch budget (256 rows at dim 32): small
  // enough that every thread's block stays in its core's L2 beside the
  // weights. The graph's projection table sits outside this budget.
  constexpr std::size_t kBlockScratchBytes = std::size_t{256} << 10;
  return kBlockScratchBytes / (encoder.tail_scratch_bytes_per_row() +
                               4 * encoder.dim() * sizeof(float));
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
