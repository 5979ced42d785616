// LRU cache for the expensive per-design prediction artifacts.
//
// Two layers, keyed off the FNV-1a hash of the request's Verilog text mixed
// with the content hash of the Liberty library it was parsed against (see
// design_cache_key) — parsed netlists and graph features depend on the
// library's cell ids, capacitances and energy LUTs, so two models bound to
// different substrates must never share a design entry even for identical
// Verilog text:
//
//   design layer      (netlist hash, library hash) -> parsed netlist +
//                     sub-module graphs (the per-design preprocessing every
//                     request would otherwise repeat);
//   embedding layer   (model, generation, workload, cycles, trace hash) ->
//                     DesignEmbeddings (per-cycle encoder forwards + cycle
//                     extras), nested under the design entry so evicting a
//                     design drops its embeddings too. For streamed
//                     workloads the trace hash pins the *content* of the
//                     client-supplied toggle trace — two different traces
//                     under the same workload name can never alias. The
//                     registry generation invalidates embeddings across a
//                     model reload under the same name.
//
// A warm embedding hit skips netlist parsing, graph building, workload
// simulation AND the encoder — the request goes straight to the GBDT
// heads, which is the serving fast path the PR exists for. Entries are
// immutable once inserted (shared_ptr<const>), so handlers running on
// pool threads read them without further locking; the cache mutex only
// guards the index. Concurrent misses on the same key may both compute
// and insert — the first insert wins (results are identical by
// determinism), and put_* returns the winning entry so every racer serves
// exactly what the cache retained.
//
// Eviction is cost-aware, not just count-based: every entry is weighed by
// its design footprint plus DesignEmbeddings::approx_bytes(), and the LRU
// tail is evicted while either the design count exceeds `max_designs` or
// the total weight exceeds `max_bytes` — so one huge design cannot pin
// memory that many cheap hot designs would use better. The most recently
// used entry is never evicted by the byte budget (a single over-budget
// design must still be servable).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "atlas/model.h"
#include "graph/submodule_graph.h"
#include "netlist/netlist.h"

namespace atlas::serve {

/// Cached per-design preprocessing output.
struct DesignArtifacts {
  netlist::Netlist gate;
  std::vector<graph::SubmoduleGraph> graphs;
  /// Sub-modules created by the structural fallback splitter (0 when the
  /// netlist arrived with sub-module attributes).
  int structural_submodules = 0;
  /// The library `gate` was parsed against. Netlist keeps a raw reference
  /// to its library, so the cache entry must co-own it: a cached design may
  /// outlive the model (and library) binding that created it once models
  /// are unloadable at runtime.
  std::shared_ptr<const liberty::Library> library;
};

/// Key for the design-artifact layer: netlist text hash mixed with the
/// library content hash, so identical Verilog parsed against different
/// substrates occupies distinct entries.
std::uint64_t design_cache_key(std::uint64_t netlist_hash,
                               std::uint64_t library_hash);

/// Approximate resident size of a design entry (netlist + graphs), used to
/// weigh eviction victims alongside their embeddings' approx_bytes().
std::size_t approx_design_bytes(const DesignArtifacts& d);

struct EmbeddingKey {
  std::string model;
  std::string workload;
  std::int32_t cycles = 0;
  /// Content hash of an externally supplied toggle trace; 0 for the
  /// built-in synthetic workloads (whose name + cycles pin the stimulus).
  std::uint64_t trace_hash = 0;
  /// ModelEntry::generation of the artifact that computed the embeddings.
  /// A reload under the same name bumps it, so stale embeddings from the
  /// replaced artifact can never satisfy a lookup for the new one.
  std::uint64_t generation = 0;

  bool operator<(const EmbeddingKey& o) const {
    return std::tie(model, workload, cycles, trace_hash, generation) <
           std::tie(o.model, o.workload, o.cycles, o.trace_hash, o.generation);
  }
};

struct FeatureCacheStats {
  std::uint64_t design_hits = 0;
  std::uint64_t design_misses = 0;
  std::uint64_t embedding_hits = 0;
  std::uint64_t embedding_misses = 0;
  std::uint64_t design_evictions = 0;
  /// Freshly computed embeddings that could not be cached because their
  /// design entry was evicted between the handler's lookup and the insert.
  /// The inserting request still serves them (put_embeddings returns the
  /// caller's pointer), but future requests must recompute — nonzero values
  /// mean encoder work is being repeated; size the cache up.
  std::uint64_t embedding_drops = 0;
};

class FeatureCache {
 public:
  /// `max_designs` bounds the design layer (LRU); `max_embeddings_per_design`
  /// bounds each entry's embedding map (LRU: a find_embeddings hit refreshes
  /// the key, so a hot workload outlives a stream of one-off traces);
  /// `max_bytes` bounds the summed approximate weight of designs +
  /// embeddings (0 = unlimited).
  explicit FeatureCache(std::size_t max_designs = 16,
                        std::size_t max_embeddings_per_design = 8,
                        std::size_t max_bytes = 0);

  std::shared_ptr<const DesignArtifacts> find_design(std::uint64_t key);
  /// Insert `d`, returning the entry that will serve future lookups. When a
  /// concurrent request already populated the key (both computed after
  /// racing on the same miss), the first insert wins and the loser gets the
  /// winner's pointer back — identical content by determinism, but callers
  /// must serve the returned entry so what they answer is what the cache
  /// holds.
  std::shared_ptr<const DesignArtifacts> put_design(
      std::uint64_t key, std::shared_ptr<const DesignArtifacts> d);

  std::shared_ptr<const core::DesignEmbeddings> find_embeddings(
      std::uint64_t design_key, const EmbeddingKey& emb_key);
  /// Insert freshly computed embeddings, returning the winning entry. Three
  /// cases: (a) normal insert — returns `emb`; (b) a racing request
  /// inserted the same key first — first insert wins, returns the cached
  /// pointer and `emb` is discarded; (c) the design entry was evicted
  /// between the handler's lookup and this insert — the embeddings cannot
  /// be cached (counted in embedding_drops), but `emb` itself is returned
  /// so the losing request still serves the encoder output it just paid
  /// for instead of failing or recomputing.
  std::shared_ptr<const core::DesignEmbeddings> put_embeddings(
      std::uint64_t design_key, const EmbeddingKey& emb_key,
      std::shared_ptr<const core::DesignEmbeddings> emb);

  /// Non-mutating presence probes for admission control (the overload shed
  /// path classifies a request warm/cold *before* deciding whether to queue
  /// it): no LRU touch, no hit/miss accounting — a shed decision must not
  /// perturb eviction order or the cache's observability.
  bool peek_design(std::uint64_t key) const;
  bool peek_embeddings(std::uint64_t design_key,
                       const EmbeddingKey& emb_key) const;

  FeatureCacheStats stats() const;
  std::size_t num_designs() const;
  /// Approximate bytes held by cached embeddings (all designs).
  std::size_t embedding_bytes() const;
  /// Approximate bytes held by the whole cache (designs + embeddings) —
  /// the quantity the `max_bytes` budget bounds.
  std::size_t total_bytes() const;

 private:
  struct Entry {
    std::shared_ptr<const DesignArtifacts> design;
    std::size_t design_bytes = 0;
    // Least recently used first: inserts append, a hit moves its key to
    // the back, eviction pops the front.
    std::list<EmbeddingKey> embedding_order;
    struct CachedEmbeddings {
      std::shared_ptr<const core::DesignEmbeddings> emb;
      std::list<EmbeddingKey>::iterator order_pos;
    };
    std::map<EmbeddingKey, CachedEmbeddings> embeddings;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  // Caller must hold mu_. Moves `key` to the front of the LRU list.
  void touch(std::uint64_t key, Entry& e);
  // Caller must hold mu_. Evicts the LRU tail while the design count is
  // over max_designs_ or the byte weight is over max_bytes_ (never the
  // MRU entry for the byte budget).
  void evict_if_needed();
  // Caller must hold mu_. Mirrors stats_/occupancy onto the global
  // atlas_serve_cache_* gauges after every mutation.
  void publish_gauges() const;

  const std::size_t max_designs_;
  const std::size_t max_embeddings_per_design_;
  const std::size_t max_bytes_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  FeatureCacheStats stats_;
  std::size_t embedding_bytes_ = 0;  // approx bytes across all entries
  std::size_t design_bytes_ = 0;     // approx bytes of design artifacts
};

}  // namespace atlas::serve
