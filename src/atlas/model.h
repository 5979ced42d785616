// The assembled ATLAS model: pre-trained encoder + three fine-tuned group
// models, with serialization and the end-user prediction API (paper Eq. 7):
//
//   P_total(cycle) = sum over sub-modules of
//       F_CT(E_g) + F_Comb(E_g, n, I, C) + F_Reg(E_g, n, I, C)
//
// Prediction consumes only the gate-level netlist and a workload trace on
// it — no layout information — and produces per-cycle power per group, per
// sub-module, per component, and for the whole design.
#pragma once

#include <string>

#include "atlas/finetune.h"
#include "atlas/pretrain.h"
#include "util/arena.h"

namespace atlas::core {

/// Per-cycle predicted power for one design under one workload.
struct Prediction {
  int num_cycles = 0;
  std::size_t num_submodules = 0;
  /// Per-cycle design-level group predictions (uW); memory is zero unless
  /// filled by the separate memory model.
  std::vector<power::GroupPower> design;                 // [cycle]
  std::vector<power::GroupPower> submodule;              // [cycle*nsm + sm]

  const power::GroupPower& at(int cycle) const {
    return design.at(static_cast<std::size_t>(cycle));
  }
  const power::GroupPower& at(int cycle, netlist::SubmoduleId sm) const {
    return submodule.at(static_cast<std::size_t>(cycle) * num_submodules +
                        static_cast<std::size_t>(sm));
  }

  /// Roll predictions up to named components (index by component id).
  std::vector<power::GroupPower> component_average(
      const netlist::Netlist& gate) const;
};

/// Everything the GBDT heads consume for one design under one workload:
/// per-sub-module static context plus, per cycle, the encoder's graph
/// embedding and the paper's extra toggle-weighted features. Computing this
/// is the expensive part of prediction (the encoder runs once per distinct
/// (sub-module, toggle vector)); the serve-layer feature cache stores it so repeat
/// queries on the same (design, workload) skip straight to the GBDT heads.
struct DesignEmbeddings {
  struct PerGraph {
    SubmoduleStatic st;
    ml::Matrix emb;                   // num_cycles x encoder dim
    std::vector<CycleExtras> extras;  // [cycle]
  };
  int num_cycles = 0;
  std::vector<PerGraph> graphs;  // aligned with the SubmoduleGraph vector

  std::size_t approx_bytes() const;
};

/// One (design, workload) in a fused encode batch.
struct EncodeItem {
  const netlist::Netlist* gate = nullptr;
  const std::vector<graph::SubmoduleGraph>* graphs = nullptr;
  const sim::ToggleTrace* trace = nullptr;
  DesignEmbeddings* out = nullptr;  // filled by encode_batch
  /// Encode cycles 0, s, 2s, ... only: row r of `out` holds cycle r * s and
  /// out->num_cycles counts the encoded cycles. Prediction needs every
  /// cycle (1); fine-tuning strides its training rows.
  int cycle_stride = 1;
};

/// Stage 1 of prediction, the only inference encoder. Between cycles a
/// graph's encoder input changes only in the toggle channel, so each
/// distinct input is encoded once:
///   * Duplicate cycles: the per-graph setup maps every encoded cycle to
///     the first encoded cycle of that graph with an identical toggle
///     vector (hashed, then compared). Only these representatives run
///     through the encoder; the rest copy its embedding row.
///   * Projection tables: the row-local half of the encoder
///     (SgFormer::project_rows) runs once per (node, toggle code) into a
///     per-graph table; each representative cycle gathers its H/Q/K/V rows
///     from the table and runs only the per-segment SgFormer::forward_tail.
/// The call opens two pool regions whatever the batch size: one over
/// graphs for the per-graph setup, one over runs of at most 64 encoded
/// cycles of one graph. Each run's task builds its graph's table in the
/// executing thread's own arena and encodes in row blocks of at most
/// encode_block_rows() rows, so scratch does not grow with the batch;
/// `arena` holds only the per-call task array. Each embedding row is
/// bit-identical to SgFormer::forward on that (graph, cycle) alone, at any
/// thread count and any batch composition. Counters:
/// atlas_model_encoded_segments_total counts representatives,
/// atlas_model_reused_segments_total the copied duplicates.
void encode_batch(const ml::SgFormer& encoder, const EncodeItem* items,
                  std::size_t n, util::Arena& arena);

/// Most rows encode_batch gathers into one forward_tail block (a block
/// always holds at least one whole segment, so a larger graph gets a block
/// of its own).
std::size_t encode_block_rows(const ml::SgFormer& encoder);

class AtlasModel {
 public:
  using EncodeItem = core::EncodeItem;

  AtlasModel(ml::SgFormer encoder, GroupModels models);

  const ml::SgFormer& encoder() const { return encoder_; }
  const GroupModels& models() const { return models_; }

  /// Predict per-cycle post-layout power from the gate-level netlist and its
  /// workload trace. `graphs` must come from build_submodule_graphs(gate).
  /// Exactly encode_batch() over this one item followed by
  /// predict_from_embeddings(), sharing one scratch arena.
  Prediction predict(const netlist::Netlist& gate,
                     const std::vector<graph::SubmoduleGraph>& graphs,
                     const sim::ToggleTrace& gate_trace) const;

  /// Stage 1 with this model's encoder (see core::encode_batch). The
  /// serving dispatcher passes its whole formed batch, grouped by model.
  void encode_batch(const EncodeItem* items, std::size_t n,
                    util::Arena& arena) const;

  /// Stage 2: GBDT heads only. predict() is exactly encode_batch() followed
  /// by this, so embeddings cached from encode_batch() reproduce predict()
  /// bit for bit — the serve feature cache depends on it. Head feature rows
  /// for all (sub-module, cycle) pairs are assembled into one block and
  /// evaluated with the forests' batched SoA traversal; `arena` (optional)
  /// supplies the scratch.
  Prediction predict_from_embeddings(
      const netlist::Netlist& gate,
      const std::vector<graph::SubmoduleGraph>& graphs,
      const DesignEmbeddings& emb, util::Arena* arena = nullptr) const;

  void save(const std::string& path) const;
  static AtlasModel load(const std::string& path);

 private:
  ml::SgFormer encoder_;
  GroupModels models_;
};

}  // namespace atlas::core
