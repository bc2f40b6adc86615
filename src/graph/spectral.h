#pragma once

/// \file spectral.h
/// Spectral-gap computation for (possibly irregular) multigraphs.
///
/// The paper states its guarantee as a constant spectral gap 1 - λ_G, where
/// λ_G is the second-largest adjacency eigenvalue (graphs there are regular
/// up to contraction). For contracted — hence mildly irregular — networks we
/// use the *normalized* adjacency N = D^{-1/2} A D^{-1/2}: for regular
/// graphs N = A/d so the two notions coincide, and vertex contraction does
/// not shrink the normalized gap (Lemma 10 of the paper, via Chung's
/// Lemma 1.15). A self-loop contributes 1 to both A and D, matching the
/// p-cycle convention of Definition 1.
///
/// Method: deflated power iteration on the half-shifted operator
/// M = (N + I)/2, whose spectrum lies in [0, 1] with order preserved. The
/// top eigenvector of N is known in closed form (w ∝ D^{1/2} 1), so we
/// project it out each iteration and the power method converges to λ₂.

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/multigraph.h"

namespace dex::graph {

struct SpectralResult {
  double lambda2 = 0.0;     ///< second-largest eigenvalue of N (signed)
  double gap = 0.0;         ///< 1 - lambda2
  std::uint32_t iterations = 0;
  bool converged = false;
  /// The (approximate) eigenvector for lambda2 in compact alive-index order;
  /// used by the sweep-cut conductance routine and the spectral adversary.
  std::vector<double> eigenvector;
  /// Compact-index -> NodeId translation for `eigenvector`.
  std::vector<NodeId> nodes;
};

struct SpectralOptions {
  double tolerance = 1e-10;     ///< residual tolerance on the Rayleigh quotient
  std::uint32_t max_iterations = 20000;
  std::uint64_t seed = 12345;   ///< start-vector seed (deterministic)
};

/// Computes the second-largest eigenvalue of the normalized adjacency of the
/// live view `g` minus the nodes flagged in `excluded` (short mask = kept);
/// degrees count only kept neighbors. Isolated kept nodes are not permitted
/// (the DEX network never has any). Row order cannot change a bit (csr.h).
[[nodiscard]] SpectralResult spectral_gap(
    const CsrView& g, const std::vector<bool>& excluded = {},
    const SpectralOptions& opts = {});

/// Adapter over closed_csr(g, alive) (empty mask = all nodes).
[[nodiscard]] SpectralResult spectral_gap(const Multigraph& g,
                                          const std::vector<bool>& alive = {},
                                          const SpectralOptions& opts = {});

/// The CSR of `g` restricted to `alive`; aborts if an edge leaves it.
[[nodiscard]] CsrView closed_csr(const Multigraph& g,
                                 const std::vector<bool>& alive);

}  // namespace dex::graph
