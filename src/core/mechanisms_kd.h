// The Section 5.3.2 / Theorem 5.6 strategy: 2D range queries under the
// distance-threshold policy Gθ_{k²} (θ >= 2).
//
// The domain is tiled into s×s blocks (s = θ/d = θ/2); the substitute
// graph Hθ has one *internal* edge per non-red vertex (to its block's
// red corner) and *external* edges forming a coarse grid over the red
// corners (Figure 7b). A mechanism that is (ε', H)-Blowfish private is
// (ℓ·ε', G)-Blowfish private for the certified stretch ℓ (Lemma 4.5),
// so we run at ε' = ε/ℓ.
//
// Strategy on the transformed (edge) domain:
//  * external edges: per-line 1D Privelet over the red grid (the
//    Section 5.2.2 strategy; budget ε', lines disjoint);
//  * internal edges: two slab systems at ε'/2 each — 2D Privelet over
//    every row-of-blocks slab (s×k cells) and every column-of-blocks
//    slab (k×s cells). Internal and external edges are disjoint, so
//    the releases parallel-compose to ε' overall.
//
// A transformed range query's internal support splits into at most 4
// strips, each bounded by s in one dimension (Figure 7d); each strip
// is answered from the slab system whose slabs are aligned with the
// strip, giving the O(d³ log^{3(d-1)} k · log³ θ / ε²) error of
// Theorem 5.6. Because the per-query choice of slab system is part of
// reconstruction, this mechanism answers range workloads directly
// rather than releasing a single histogram estimate (both releases are
// still published noisy vectors; reconstruction is post-processing).
//
// Reconstruction cost. Only edges with exactly one endpoint inside the
// rectangle carry a nonzero coefficient, and every edge spans at most
// s cells per axis, so each such edge has its inside endpoint within s
// of the border. A query visits just that band through a per-cell
// incident-edge index: O(perimeter · θ²) work instead of a scan of
// all ~k² edges.
// The crossing edges are summed in ascending edge index — the same
// nonzero terms in the same order as a full edge scan, so the answers
// are bit-identical to it.

#ifndef BLOWFISH_CORE_MECHANISMS_KD_H_
#define BLOWFISH_CORE_MECHANISMS_KD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/subgraph_approx.h"
#include "core/transform.h"
#include "mech/mechanism.h"
#include "mech/privelet.h"
#include "workload/workload.h"

namespace blowfish {

/// \brief Gθ_{k²} range-query mechanism (θ >= 2).
class GridThetaRangeMechanism {
 private:
  /// One submit's noisy edge-domain releases — defined before the
  /// public section so RangeCursor can hold them by value.
  struct Releases {
    Vector est_row;  // per edge; meaningful for internal edges
    Vector est_col;  // per edge; internal
    Vector est_ext;  // per edge; external
  };

 public:
  /// Requires θ >= 2 and (θ/2 == 0 is impossible) k divisible by the
  /// block side s = max(1, θ/2).
  static Result<std::unique_ptr<GridThetaRangeMechanism>> Create(
      size_t k, size_t theta);

  /// Answers every query of `workload` (a 2D range workload over the
  /// k×k domain) under (ε, Gθ_{k²})-Blowfish privacy.
  Vector AnswerRanges(const RangeWorkload& workload, const Vector& x,
                      double epsilon, Rng* rng) const;

  /// Split entry points for multi-trial benchmarking: the database
  /// transform is noise-free and reusable across trials.
  Vector PrecomputeTransformed(const Vector& x) const {
    return transform_.TransformDatabase(x);
  }
  /// Length of the transformed (spanner-edge-domain) database; used
  /// by restore paths to validate a persisted transform's shape.
  size_t num_spanner_edges() const { return transform_.num_edges(); }
  Vector AnswerRangesOnTransformed(const RangeWorkload& workload,
                                   const Vector& xg, double n,
                                   double epsilon, Rng* rng) const;

  /// \brief Resumable form of AnswerRangesOnTransformed. The noisy
  /// slab/line releases — the whole privacy-relevant part of the
  /// submit — are drawn at construction; AnswerNext() then
  /// reconstructs a workload's queries strictly in order, any number
  /// at a time, as pure post-processing of those releases.
  /// Concatenating every block is bit-identical to the one-shot call
  /// with the same rng stream. The cursor holds no queries: every
  /// AnswerNext call passes the same workload, which the caller keeps
  /// alive. Not thread-safe; the owning mechanism must outlive the
  /// cursor.
  class RangeCursor {
   public:
    /// Appends up to `count` answers (fewer at the tail) for queries
    /// [position(), position() + count) of `workload` to `out`;
    /// returns how many were produced (0 once exhausted).
    size_t AnswerNext(const RangeWorkload& workload, size_t count,
                      Vector* out);

    size_t position() const { return next_; }

   private:
    friend class GridThetaRangeMechanism;
    RangeCursor(const GridThetaRangeMechanism* mech, Releases releases,
                double n)
        : mech_(mech), releases_(std::move(releases)), n_(n) {}

    const GridThetaRangeMechanism* mech_;
    Releases releases_;
    double n_;
    size_t next_ = 0;
    std::vector<uint32_t> crossing_;  // AnswerOneRange scratch
  };

  /// Draws this submit's releases and positions a cursor at query 0.
  /// Same preconditions on `xg`, `n` and `epsilon` as
  /// AnswerRangesOnTransformed.
  std::unique_ptr<RangeCursor> BeginRanges(const Vector& xg, double n,
                                           double epsilon, Rng* rng) const;

  /// Full-histogram release x̂ (all k² cells, flattened row-major):
  /// bit-identical to answering every unit-cell range through
  /// AnswerRangesOnTransformed, but one O(edges) scatter pass instead
  /// of k² range reconstructions — each edge estimate touches exactly
  /// its two incident cells, so the per-cell accumulation order (edge
  /// order) matches the generic path and the floating-point sums are
  /// equal.
  Vector ReleaseHistogramOnTransformed(const Vector& xg, double n,
                                       double epsilon, Rng* rng) const;

  PrivacyGuarantee Guarantee(double epsilon) const;
  int64_t stretch() const { return stretch_; }
  size_t block() const { return block_; }
  std::string name() const { return "Transformed+SlabPrivelet"; }

 private:
  GridThetaRangeMechanism() = default;

  Releases RunReleases(const Vector& xg, double eps_prime, Rng* rng) const;

  /// Reconstructs one range query from the releases (the generic
  /// Figure 7d strip classification) over the edges crossing the
  /// rectangle's border; `crossing` is reusable scratch. Both the
  /// one-shot path and the cursor call exactly this, so their answers
  /// are bit-identical.
  double AnswerOneRange(const RangeQuery& query, const Releases& releases,
                        double n, std::vector<uint32_t>* crossing) const;

  size_t k_ = 0;
  size_t theta_ = 0;
  size_t block_ = 0;
  int64_t stretch_ = 0;
  PolicyTransform transform_;  // over the spanner policy H
  std::string original_policy_name_;

  // Per-edge metadata (index = P_G column = spanner edge index).
  struct EdgeInfo {
    bool internal = false;
    uint32_t u = 0, v = 0;  // original endpoints (v is the red/second one)
    uint32_t ui = 0, uj = 0, vi = 0, vj = 0;  // their (row, column)
    // Internal: black endpoint coordinates.
    uint32_t bi = 0, bj = 0;
  };
  std::vector<EdgeInfo> edge_info_;
  // External line groups: edge indices ordered along the line.
  std::vector<std::vector<size_t>> external_lines_;
  // Incident edges per cell (CSR over the k² row-major cells): cell c's
  // edges are incident_[incident_start_[c] .. incident_start_[c + 1]),
  // in ascending edge order, each with its far endpoint so the
  // crossing test reads no edge metadata.
  struct Incident {
    uint32_t edge;
    uint16_t oi, oj;  // the edge's other endpoint (row, column)
  };
  std::vector<uint32_t> incident_start_;
  std::vector<Incident> incident_;
  // The release mechanisms, fixed by (k, block): one per external line
  // (k/block entries each), one per row-of-blocks and column-of-blocks
  // slab.
  std::unique_ptr<const PriveletMechanism> line_privelet_;
  std::unique_ptr<const PriveletMechanism> row_privelet_;
  std::unique_ptr<const PriveletMechanism> col_privelet_;
};

}  // namespace blowfish

#endif  // BLOWFISH_CORE_MECHANISMS_KD_H_
