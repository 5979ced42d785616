#include "atlas/finetune.h"

#include <algorithm>
#include <stdexcept>

#include "atlas/model.h"
#include "util/arena.h"

namespace atlas::core {

using graph::SubmoduleGraph;
using ml::Matrix;

SubmoduleStatic compute_submodule_static(const netlist::Netlist& gate,
                                         const SubmoduleGraph& g) {
  SubmoduleStatic st;
  const liberty::Library& lib = gate.library();
  st.volt_sq = lib.voltage() * lib.voltage();
  st.period_ns = lib.clock_period_ns();
  st.internal_fj.resize(g.num_nodes(), 0.0f);
  st.cap_ff.resize(g.num_nodes(), 0.0f);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const netlist::CellInstId cid = g.cells[i];
    const liberty::Cell& lc = gate.lib_cell(cid);
    const liberty::PowerGroup group = liberty::power_group_of(lc.type);
    if (group == liberty::PowerGroup::kComb) {
      ++st.n_comb;
      st.leak_comb_uw += lc.leakage_uw;
    }
    if (group == liberty::PowerGroup::kRegister) {
      ++st.n_reg;
      st.leak_reg_uw += lc.leakage_uw;
      st.clockpin_reg_fj += lc.clock_pin_energy_fj;
    }
    double load = 0.0;
    if (g.out_net[i] != netlist::kNoNet) {
      load = layout::net_load_ff(gate, g.out_net[i]);
    }
    st.internal_fj[i] = static_cast<float>(
        lib.internal_energy_fj(gate.cell(cid).lib_cell, load));
    st.cap_ff[i] = static_cast<float>(load);
  }
  return st;
}

double comb_physics_uw(const SubmoduleStatic& st, const CycleExtras& ex) {
  const double switching = 0.5 * st.volt_sq * static_cast<double>(ex.c_comb);
  return (static_cast<double>(ex.i_comb) + switching) / st.period_ns +
         st.leak_comb_uw;
}

double reg_physics_uw(const SubmoduleStatic& st, const CycleExtras& ex) {
  const double switching = 0.5 * st.volt_sq * static_cast<double>(ex.c_reg);
  // Register clock pins see two edges per cycle at the gate level.
  return (static_cast<double>(ex.i_reg) + switching + 2.0 * st.clockpin_reg_fj) /
             st.period_ns +
         st.leak_reg_uw;
}

double ct_normalizer(const SubmoduleStatic& st) {
  return std::max(1, st.n_reg);
}

CycleExtras compute_cycle_extras(const SubmoduleGraph& g,
                                 const SubmoduleStatic& st,
                                 const sim::ToggleTrace& gate_trace, int cycle) {
  CycleExtras ex;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const netlist::NetId net = g.out_net[i];
    if (net == netlist::kNoNet) continue;
    const float toggles =
        static_cast<float>(gate_trace.transitions(cycle, net));
    if (toggles == 0.0f) continue;
    const auto type = static_cast<liberty::NodeType>(g.node_type[i]);
    const liberty::PowerGroup group = liberty::power_group_of(type);
    if (group == liberty::PowerGroup::kComb) {
      ex.i_comb += st.internal_fj[i] * toggles;
      ex.c_comb += st.cap_ff[i] * toggles;
    } else if (group == liberty::PowerGroup::kRegister) {
      ex.i_reg += st.internal_fj[i] * toggles;
      ex.c_reg += st.cap_ff[i] * toggles;
    }
  }
  return ex;
}

std::size_t ct_dim(std::size_t d) { return d; }
std::size_t comb_dim(std::size_t d) { return d + 3; }
std::size_t reg_dim(std::size_t d) { return d + 3; }

void fill_ct_row(const float* emb, std::size_t d, float* row) {
  std::copy(emb, emb + d, row);
}

void fill_comb_row(const float* emb, std::size_t d, const SubmoduleStatic& st,
                   const CycleExtras& ex, float* row) {
  std::copy(emb, emb + d, row);
  row[d] = static_cast<float>(st.n_comb);
  row[d + 1] = ex.i_comb;
  row[d + 2] = ex.c_comb;
}

void fill_reg_row(const float* emb, std::size_t d, const SubmoduleStatic& st,
                  const CycleExtras& ex, float* row) {
  std::copy(emb, emb + d, row);
  row[d] = static_cast<float>(st.n_reg);
  row[d + 1] = ex.i_reg;
  row[d + 2] = ex.c_reg;
}

GroupModels finetune_models(const std::vector<const DesignData*>& designs,
                            const ml::SgFormer& encoder,
                            const FinetuneConfig& config) {
  if (designs.empty()) throw std::invalid_argument("finetune: no designs");
  const std::size_t d = encoder.dim();
  const int stride = std::max(1, config.cycle_stride);

  // Encode every strided (design, workload, sub-module, cycle) in one fused
  // batch; the per-graph statics and cycle extras come with it.
  std::vector<EncodeItem> items;
  for (const DesignData* dd : designs) {
    for (const auto& wl : dd->workloads) {
      items.push_back(
          EncodeItem{&dd->gate, &dd->gate_graphs, &wl.gate_trace, nullptr, stride});
    }
  }
  std::vector<DesignEmbeddings> embs(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) items[i].out = &embs[i];
  {
    util::Arena arena;
    encode_batch(encoder, items.data(), items.size(), arena);
  }
  std::size_t rows = 0;
  for (const DesignEmbeddings& e : embs) {
    rows += e.graphs.size() * static_cast<std::size_t>(e.num_cycles);
  }
  Matrix x_ct(rows, ct_dim(d));
  Matrix x_comb(rows, comb_dim(d));
  Matrix x_reg(rows, reg_dim(d));
  std::vector<double> y_ct, y_comb, y_reg;
  y_ct.reserve(rows);
  y_comb.reserve(rows);
  y_reg.reserve(rows);

  std::size_t row = 0;
  std::size_t item = 0;
  for (const DesignData* dd : designs) {
    for (const auto& wl : dd->workloads) {
      const DesignEmbeddings& emb = embs[item++];
      for (std::size_t gi = 0; gi < dd->gate_graphs.size(); ++gi) {
        const SubmoduleGraph& g = dd->gate_graphs[gi];
        const DesignEmbeddings::PerGraph& pg = emb.graphs[gi];
        const SubmoduleStatic& st = pg.st;
        for (int k = 0; k < emb.num_cycles; ++k) {
          const std::size_t r = static_cast<std::size_t>(k);
          const float* e = pg.emb.row(r);
          const CycleExtras& ex = pg.extras[r];
          fill_ct_row(e, d, x_ct.row(row));
          fill_comb_row(e, d, st, ex, x_comb.row(row));
          fill_reg_row(e, d, st, ex, x_reg.row(row));
          const power::GroupPower& label =
              wl.golden.submodule(k * stride, g.submodule);
          // Ratio targets against the analytic gate-level estimates (see
          // comb_physics_uw): trees model the bounded layout-uplift ratio.
          y_ct.push_back(label.clock / ct_normalizer(st));
          y_comb.push_back(label.comb / (comb_physics_uw(st, ex) + kRatioEps));
          y_reg.push_back(label.reg / (reg_physics_uw(st, ex) + kRatioEps));
          ++row;
        }
      }
    }
  }

  GroupModels models{ml::GbdtRegressor(config.gbdt),
                     ml::GbdtRegressor(config.gbdt),
                     ml::GbdtRegressor(config.gbdt)};
  models.f_ct.fit(x_ct, y_ct);
  models.f_comb.fit(x_comb, y_comb);
  models.f_reg.fit(x_reg, y_reg);
  return models;
}

}  // namespace atlas::core
