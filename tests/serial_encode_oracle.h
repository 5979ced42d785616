// Test-only reference encoder: one SgFormer::forward per (sub-module,
// cycle), assembled into DesignEmbeddings exactly as a per-graph serial
// loop computes them. Production inference runs only the fused
// core::encode_batch; this oracle is what the bit-identity tests compare
// it against, so the check is never predict() against itself.
#pragma once

#include <algorithm>
#include <vector>

#include "atlas/model.h"
#include "graph/submodule_graph.h"

namespace atlas::oracle {

inline core::DesignEmbeddings serial_encode(
    const ml::SgFormer& encoder, const netlist::Netlist& gate,
    const std::vector<graph::SubmoduleGraph>& graphs,
    const sim::ToggleTrace& trace) {
  core::DesignEmbeddings emb;
  emb.num_cycles = trace.num_cycles();
  const std::size_t d = encoder.dim();
  ml::Matrix feats;
  for (const graph::SubmoduleGraph& g : graphs) {
    core::DesignEmbeddings::PerGraph pg;
    pg.st = core::compute_submodule_static(gate, g);
    pg.emb = ml::Matrix(static_cast<std::size_t>(emb.num_cycles), d);
    pg.extras.resize(static_cast<std::size_t>(emb.num_cycles));
    for (int c = 0; c < emb.num_cycles; ++c) {
      graph::fill_cycle_features(g, trace, c, feats);
      const ml::SgFormer::Output out =
          encoder.forward(graph::view_with_features(g, feats));
      std::copy(out.graph_emb.row(0), out.graph_emb.row(0) + d,
                pg.emb.row(static_cast<std::size_t>(c)));
      pg.extras[static_cast<std::size_t>(c)] =
          core::compute_cycle_extras(g, pg.st, trace, c);
    }
    emb.graphs.push_back(std::move(pg));
  }
  return emb;
}

/// The reference prediction: serial embeddings through the GBDT heads.
inline core::Prediction serial_predict(
    const core::AtlasModel& model, const netlist::Netlist& gate,
    const std::vector<graph::SubmoduleGraph>& graphs,
    const sim::ToggleTrace& trace) {
  return model.predict_from_embeddings(
      gate, graphs, serial_encode(model.encoder(), gate, graphs, trace));
}

}  // namespace atlas::oracle
