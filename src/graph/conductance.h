#pragma once

/// \file conductance.h
/// Cut quality measures: conductance and edge expansion (Definition 5 of the
/// paper), via exact enumeration for tiny graphs and spectral sweep cuts for
/// larger ones. The sweep cut also powers the adaptive "spectral attack"
/// adversary, which deletes nodes along the sparsest cut it can find —
/// exactly the kind of adaptive strategy the paper's adversary model allows.

#include <cstdint>
#include <vector>

#include "graph/multigraph.h"
#include "graph/spectral.h"

namespace dex::graph {

struct CutResult {
  std::vector<NodeId> side;     ///< the smaller side S of the cut
  std::size_t cut_edges = 0;    ///< |E(S, S̄)| counting multiplicity
  double conductance = 1.0;     ///< cut_edges / min(vol S, vol S̄)
  double edge_expansion = 0.0;  ///< cut_edges / |S| (|S| <= n/2)
};

/// Cut statistics for an explicit side S (rest of alive nodes is S̄).
[[nodiscard]] CutResult evaluate_cut(const Multigraph& g,
                                     const std::vector<NodeId>& side,
                                     const std::vector<bool>& alive = {});

/// Best sweep cut along the second eigenvector (Fiedler ordering) of `g`
/// minus `excluded`, as in spectral_gap. Upper-bounds the true conductance;
/// Cheeger (Theorem 2 of the paper) lower-bounds it by gap/2.
[[nodiscard]] CutResult sweep_cut(const CsrView& g,
                                  const std::vector<bool>& excluded = {},
                                  const SpectralOptions& opts = {});

/// Adapter over closed_csr(g, alive), as for spectral_gap.
[[nodiscard]] CutResult sweep_cut(const Multigraph& g,
                                  const std::vector<bool>& alive = {},
                                  const SpectralOptions& opts = {});

/// Exact minimum edge expansion h(G) by subset enumeration.
/// Only valid for alive-node counts <= 20 (used by tests).
[[nodiscard]] double exact_edge_expansion(const Multigraph& g,
                                          const std::vector<bool>& alive = {});

}  // namespace dex::graph
