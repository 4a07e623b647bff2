#include "core/mechanisms_kd.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "graph/algorithms.h"

namespace blowfish {

namespace {

constexpr size_t kMaxSide = 16384;

// The spanner structure is translation invariant, so the worst-case
// edge stretch stabilizes once the grid comfortably contains a few
// blocks in each direction; certify on a small grid and reuse.
size_t CertificationGridSize(size_t k, size_t theta, size_t block) {
  const size_t want = 8 * std::max(theta, block);
  size_t size = std::min(k, want);
  size -= size % block;  // keep divisibility
  return std::max(size, 2 * block);
}

}  // namespace

Result<std::unique_ptr<GridThetaRangeMechanism>>
GridThetaRangeMechanism::Create(size_t k, size_t theta) {
  if (theta < 2) {
    return Status::InvalidArgument(
        "Gθ grid strategy needs θ >= 2; θ = 1 is GridBlowfishMechanism");
  }
  const size_t block = std::max<size_t>(1, theta / 2);
  if (k % block != 0 || k < 2 * block) {
    return Status::InvalidArgument("grid θ strategy requires block | k");
  }
  // Cells, edges (< 3k²) and incident-edge entries are indexed in 32
  // bits, coordinates in 16.
  if (k > kMaxSide) {
    return Status::InvalidArgument("grid θ strategy requires k <= " +
                                   std::to_string(kMaxSide));
  }

  auto m = std::unique_ptr<GridThetaRangeMechanism>(
      new GridThetaRangeMechanism());
  m->k_ = k;
  m->theta_ = theta;
  m->block_ = block;

  // Certify the stretch on a translation-representative grid.
  const size_t kc = CertificationGridSize(k, theta, block);
  {
    const DomainShape small({kc, kc});
    const Graph g_small = DistanceThresholdGraph(small, theta);
    const GridSpanner h_small = BuildGridThetaSpanner(small, block);
    const int64_t stretch = MaxEdgeStretch(g_small, h_small.graph);
    if (stretch < 0) return Status::Internal("spanner failed to connect");
    m->stretch_ = stretch;
  }

  const DomainShape domain({k, k});
  m->original_policy_name_ = GridPolicy(domain, theta).name;
  GridSpanner spanner = BuildGridThetaSpanner(domain, block);

  // Edge metadata, aligned with P_G columns (the reduction keeps edge
  // order; the removed vertex is the policy-graph corner, which is red,
  // so no duplicate edges arise).
  const std::vector<Graph::Edge>& edges = spanner.graph.edges();
  m->edge_info_.resize(edges.size());
  std::map<std::pair<size_t, size_t>, size_t> line_of;
  const size_t reds_per_dim = k / block;
  for (size_t e = 0; e < edges.size(); ++e) {
    EdgeInfo& info = m->edge_info_[e];
    info.u = static_cast<uint32_t>(edges[e].u);
    info.v = static_cast<uint32_t>(edges[e].v);
    info.ui = static_cast<uint32_t>(edges[e].u / k);
    info.uj = static_cast<uint32_t>(edges[e].u % k);
    info.vi = static_cast<uint32_t>(edges[e].v / k);
    info.vj = static_cast<uint32_t>(edges[e].v % k);
    const bool u_is_black = spanner.internal_edge[edges[e].u] == e;
    const bool v_is_black = spanner.internal_edge[edges[e].v] == e;
    info.internal = u_is_black || v_is_black;
    if (info.internal) {
      const size_t black = u_is_black ? edges[e].u : edges[e].v;
      const std::vector<size_t> c = domain.Unflatten(black);
      info.bi = static_cast<uint32_t>(c[0]);
      info.bj = static_cast<uint32_t>(c[1]);
    } else {
      // External edge between adjacent red corners; group by line.
      const std::vector<size_t> cu = domain.Unflatten(edges[e].u);
      const std::vector<size_t> cv = domain.Unflatten(edges[e].v);
      const size_t dd = (cu[0] != cv[0]) ? 0 : 1;
      const size_t other = (dd == 0) ? 1 : 0;
      const size_t plane = std::min(cu[dd], cv[dd]) / block;  // block index
      auto key = std::make_pair(dd, plane);
      auto it = line_of.find(key);
      if (it == line_of.end()) {
        m->external_lines_.emplace_back(reds_per_dim, SIZE_MAX);
        it = line_of.emplace(key, m->external_lines_.size() - 1).first;
      }
      const size_t pos = cu[other] / block;  // same for cv
      BF_CHECK_EQ(m->external_lines_[it->second][pos], SIZE_MAX);
      m->external_lines_[it->second][pos] = e;
    }
  }
  // Each external line holds one edge per red position along the free
  // axis (m = k/block of them).
  for (const auto& line : m->external_lines_) {
    for (size_t slot : line) BF_CHECK_NE(slot, SIZE_MAX);
  }
  m->line_privelet_ =
      std::make_unique<PriveletMechanism>(DomainShape({reds_per_dim}));
  m->row_privelet_ =
      std::make_unique<PriveletMechanism>(DomainShape({block, k}));
  m->col_privelet_ =
      std::make_unique<PriveletMechanism>(DomainShape({k, block}));

  // Per-cell incident-edge index (counting sort by endpoint, so each
  // cell's list is in ascending edge order).
  m->incident_start_.assign(k * k + 1, 0);
  for (const Graph::Edge& edge : edges) {
    ++m->incident_start_[edge.u + 1];
    ++m->incident_start_[edge.v + 1];
  }
  for (size_t c = 0; c < k * k; ++c) {
    m->incident_start_[c + 1] += m->incident_start_[c];
  }
  m->incident_.resize(m->incident_start_[k * k]);
  {
    std::vector<uint32_t> fill(m->incident_start_.begin(),
                               m->incident_start_.end() - 1);
    for (size_t e = 0; e < edges.size(); ++e) {
      const EdgeInfo& info = m->edge_info_[e];
      const auto edge = static_cast<uint32_t>(e);
      m->incident_[fill[info.u]++] = {edge, static_cast<uint16_t>(info.vi),
                                      static_cast<uint16_t>(info.vj)};
      m->incident_[fill[info.v]++] = {edge, static_cast<uint16_t>(info.ui),
                                      static_cast<uint16_t>(info.uj)};
    }
  }

  Policy h_policy{"H^" + std::to_string(theta) + "_{" + std::to_string(k) +
                      "x" + std::to_string(k) + "}",
                  domain, std::move(spanner.graph)};
  Result<PolicyTransform> transform = PolicyTransform::Create(std::move(h_policy));
  if (!transform.ok()) return transform.status();
  m->transform_ = std::move(transform).ValueOrDie();
  if (m->transform_.num_edges() != m->edge_info_.size()) {
    return Status::Internal("θ-grid reduction changed the edge count");
  }
  return m;
}

GridThetaRangeMechanism::Releases GridThetaRangeMechanism::RunReleases(
    const Vector& xg, double eps_prime, Rng* rng) const {
  BF_CHECK_EQ(xg.size(), edge_info_.size());
  Releases rel;
  rel.est_row.assign(xg.size(), 0.0);
  rel.est_col.assign(xg.size(), 0.0);
  rel.est_ext.assign(xg.size(), 0.0);

  // External: one 1D Privelet per red-grid line at full ε' (disjoint).
  Vector sub(k_ / block_);
  for (const std::vector<size_t>& line : external_lines_) {
    for (size_t i = 0; i < line.size(); ++i) sub[i] = xg[line[i]];
    const Vector est = line_privelet_->Run(sub, eps_prime, rng);
    for (size_t i = 0; i < line.size(); ++i) rel.est_ext[line[i]] = est[i];
  }

  // Internal: slab systems. Cells indexed by the black endpoint; red
  // cells (no internal edge) stay zero.
  const size_t num_slabs = k_ / block_;
  // Map each internal edge to its slabs once.
  std::vector<Vector> row_slabs(num_slabs, Vector(block_ * k_, 0.0));
  std::vector<Vector> col_slabs(num_slabs, Vector(k_ * block_, 0.0));
  for (size_t e = 0; e < edge_info_.size(); ++e) {
    const EdgeInfo& info = edge_info_[e];
    if (!info.internal) continue;
    row_slabs[info.bi / block_][(info.bi % block_) * k_ + info.bj] = xg[e];
    col_slabs[info.bj / block_][info.bi * block_ + (info.bj % block_)] = xg[e];
  }
  std::vector<Vector> row_est(num_slabs), col_est(num_slabs);
  for (size_t b = 0; b < num_slabs; ++b) {
    row_est[b] = row_privelet_->Run(row_slabs[b], eps_prime / 2.0, rng);
    col_est[b] = col_privelet_->Run(col_slabs[b], eps_prime / 2.0, rng);
  }
  for (size_t e = 0; e < edge_info_.size(); ++e) {
    const EdgeInfo& info = edge_info_[e];
    if (!info.internal) continue;
    rel.est_row[e] =
        row_est[info.bi / block_][(info.bi % block_) * k_ + info.bj];
    rel.est_col[e] =
        col_est[info.bj / block_][info.bi * block_ + (info.bj % block_)];
  }
  return rel;
}

Vector GridThetaRangeMechanism::AnswerRanges(const RangeWorkload& workload,
                                             const Vector& x, double epsilon,
                                             Rng* rng) const {
  return AnswerRangesOnTransformed(workload, PrecomputeTransformed(x),
                                   Sum(x), epsilon, rng);
}

double GridThetaRangeMechanism::AnswerOneRange(
    const RangeQuery& q, const Releases& rel, double n,
    std::vector<uint32_t>* crossing) const {
  const size_t corner_i = k_ - 1, corner_j = k_ - 1;  // Case-II vertex
  const size_t r1 = q.lo[0], r2 = q.hi[0];
  const size_t c1 = q.lo[1], c2 = q.hi[1];
  const auto inside = [&](size_t i, size_t j) {
    return i >= r1 && i <= r2 && j >= c1 && j <= c2;
  };
  // Collect the edges leaving the rectangle from its inside endpoint,
  // which lies within block_ of the border: internal edges span fewer
  // than block_ cells per axis, external edges exactly block_.
  crossing->clear();
  const auto visit = [&](size_t i, size_t j) {
    const size_t cell = i * k_ + j;
    for (uint32_t p = incident_start_[cell]; p < incident_start_[cell + 1];
         ++p) {
      const Incident& incident = incident_[p];
      if (!inside(incident.oi, incident.oj)) crossing->push_back(incident.edge);
    }
  };
  const size_t left_end = std::min(c2, c1 + block_ - 1);
  const size_t right_begin =
      std::max(left_end + 1, c2 + 1 < block_ ? 0 : c2 + 1 - block_);
  for (size_t i = r1; i <= r2; ++i) {
    if (i < r1 + block_ || i + block_ > r2) {
      for (size_t j = c1; j <= c2; ++j) visit(i, j);
    } else {
      for (size_t j = c1; j <= left_end; ++j) visit(i, j);
      for (size_t j = right_begin; j <= c2; ++j) visit(i, j);
    }
  }
  // Ascending edge order: the order a full edge scan adds its nonzero
  // terms in, so the floating-point sum is the same.
  std::sort(crossing->begin(), crossing->end());

  double acc = 0.0;
  // Case-II constant q[corner] * n.
  if (inside(corner_i, corner_j)) acc += n;
  for (const uint32_t e : *crossing) {
    const EdgeInfo& info = edge_info_[e];
    const double coef = inside(info.ui, info.uj) ? 1.0 : -1.0;
    double est;
    if (!info.internal) {
      est = rel.est_ext[e];
    } else {
      // Strip classification (Figure 7d): pick the slab system whose
      // slabs run along the strip's long axis.
      const size_t red_i = (info.bi / block_ + 1) * block_ - 1;
      bool use_row;
      if (inside(info.bi, info.bj)) {
        // Black inside, red outside: top overflow -> horizontal strip.
        use_row = red_i > r2;
      } else {
        // Red inside, black outside: bottom/left underflow.
        use_row = info.bi < r1;
      }
      est = use_row ? rel.est_row[e] : rel.est_col[e];
    }
    acc += coef * est;
  }
  return acc;
}

Vector GridThetaRangeMechanism::AnswerRangesOnTransformed(
    const RangeWorkload& workload, const Vector& xg, double n,
    double epsilon, Rng* rng) const {
  BF_CHECK_GT(epsilon, 0.0);
  BF_CHECK_EQ(workload.domain().num_dims(), 2u);
  BF_CHECK_EQ(workload.domain().size(), k_ * k_);
  const double eps_prime = epsilon / static_cast<double>(stretch_);
  const Releases rel = RunReleases(xg, eps_prime, rng);

  Vector answers(workload.num_queries(), 0.0);
  std::vector<uint32_t> crossing;
  for (size_t qi = 0; qi < workload.num_queries(); ++qi) {
    answers[qi] = AnswerOneRange(workload.queries()[qi], rel, n, &crossing);
  }
  return answers;
}

std::unique_ptr<GridThetaRangeMechanism::RangeCursor>
GridThetaRangeMechanism::BeginRanges(const Vector& xg, double n,
                                     double epsilon, Rng* rng) const {
  BF_CHECK_GT(epsilon, 0.0);
  const double eps_prime = epsilon / static_cast<double>(stretch_);
  // All noise for the submit is drawn here — the cursor's answers are
  // post-processing, so pausing or abandoning it leaks nothing beyond
  // the releases the charge already covered.
  Releases rel = RunReleases(xg, eps_prime, rng);
  return std::unique_ptr<RangeCursor>(
      new RangeCursor(this, std::move(rel), n));
}

size_t GridThetaRangeMechanism::RangeCursor::AnswerNext(
    const RangeWorkload& workload, size_t count, Vector* out) {
  BF_CHECK_EQ(workload.domain().num_dims(), 2u);
  BF_CHECK_EQ(workload.domain().size(), mech_->k_ * mech_->k_);
  const size_t end = std::min(next_ + count, workload.num_queries());
  const size_t produced = end - next_;
  out->reserve(out->size() + produced);
  for (; next_ < end; ++next_) {
    out->push_back(mech_->AnswerOneRange(workload.queries()[next_],
                                         releases_, n_, &crossing_));
  }
  return produced;
}

Vector GridThetaRangeMechanism::ReleaseHistogramOnTransformed(
    const Vector& xg, double n, double epsilon, Rng* rng) const {
  BF_CHECK_GT(epsilon, 0.0);
  const double eps_prime = epsilon / static_cast<double>(stretch_);
  const Releases rel = RunReleases(xg, eps_prime, rng);

  Vector answers(k_ * k_, 0.0);
  // Case-II constant, added before any edge contribution (matching
  // the generic path's accumulation order exactly).
  answers[k_ * k_ - 1] = n;
  for (size_t e = 0; e < edge_info_.size(); ++e) {
    const EdgeInfo& info = edge_info_[e];
    // A unit-cell range contains an endpoint or it does not: the
    // generic coefficient (inside(u) - inside(v)) collapses to +1 on
    // u's cell and -1 on v's cell, with the same strip-classification
    // rule evaluated at that single cell.
    const size_t endpoints[2] = {info.u, info.v};
    const double signs[2] = {1.0, -1.0};
    for (int s = 0; s < 2; ++s) {
      const size_t cell = endpoints[s];
      double est;
      if (!info.internal) {
        est = rel.est_ext[e];
      } else {
        const size_t pi = cell / k_, pj = cell % k_;
        const size_t red_i = (info.bi / block_ + 1) * block_ - 1;
        const bool endpoint_is_black = (info.bi == pi && info.bj == pj);
        // Black inside: top overflow -> horizontal strip. Red inside:
        // bottom/left underflow (Figure 7d), as in the generic path.
        const bool use_row =
            endpoint_is_black ? (red_i > pi) : (info.bi < pi);
        est = use_row ? rel.est_row[e] : rel.est_col[e];
      }
      answers[cell] += signs[s] * est;
    }
  }
  return answers;
}

PrivacyGuarantee GridThetaRangeMechanism::Guarantee(double epsilon) const {
  return PrivacyGuarantee{
      epsilon, "(" + std::to_string(epsilon) + ", " + original_policy_name_ +
                   ")-Blowfish (Thm 4.1 + Lemma 4.5, stretch " +
                   std::to_string(stretch_) + ")"};
}

}  // namespace blowfish
