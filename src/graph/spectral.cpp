#include "graph/spectral.h"

#include <cmath>

#include "support/prng.h"

namespace dex::graph {

namespace {

/// Euclidean norm.
double norm(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void axpy(std::vector<double>& y, double alpha, const std::vector<double>& x) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::vector<double>& v, double alpha) {
  for (double& x : v) x *= alpha;
}

}  // namespace

CsrView closed_csr(const Multigraph& g, const std::vector<bool>& alive) {
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!alive.empty() && !alive[u]) continue;
    for (NodeId v : g.ports(u)) {
      DEX_ASSERT_MSG(alive.empty() || alive[v],
                     "edge leaves the alive subgraph");
    }
  }
  CsrView view;
  view.build(g, alive);
  return view;
}

SpectralResult spectral_gap(const Multigraph& g,
                            const std::vector<bool>& alive,
                            const SpectralOptions& opts) {
  return spectral_gap(closed_csr(g, alive), {}, opts);
}

SpectralResult spectral_gap(const CsrView& g,
                            const std::vector<bool>& excluded,
                            const SpectralOptions& opts) {
  SpectralResult res;
  constexpr std::uint32_t kDropped = ~std::uint32_t{0};

  // Compact indexing of the kept nodes.
  std::vector<std::uint32_t> compact(g.node_count(), kDropped);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!g.alive(u) || (u < excluded.size() && excluded[u])) continue;
    compact[u] = static_cast<std::uint32_t>(res.nodes.size());
    res.nodes.push_back(u);
  }
  const std::size_t n = res.nodes.size();
  if (n <= 1) {
    // A single node (or empty graph) has no second eigenvalue; by convention
    // report a full gap.
    res.lambda2 = 0.0;
    res.gap = 1.0;
    res.converged = true;
    return res;
  }

  std::vector<double> inv_sqrt_deg(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t d = 0;
    for (NodeId v : g.neighbors(res.nodes[i])) {
      if (compact[v] != kDropped) ++d;
    }
    DEX_ASSERT_MSG(d > 0, "spectral_gap: isolated alive node");
    inv_sqrt_deg[i] = 1.0 / std::sqrt(static_cast<double>(d));
  }

  // Top eigenvector of N: w_i = sqrt(d_i), normalized.
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = 1.0 / inv_sqrt_deg[i];
  scale(w, 1.0 / norm(w));

  // y = M x with M = (N + I)/2, N = D^{-1/2} A D^{-1/2}.
  std::vector<double> y(n);
  auto matvec = [&](const std::vector<double>& x) {
    for (std::size_t i = 0; i < n; ++i) y[i] = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId u = res.nodes[i];
      const double xi = x[i] * inv_sqrt_deg[i];
      for (NodeId v : g.neighbors(u)) {
        const std::uint32_t j = compact[v];
        if (j == kDropped) continue;  // edge into an excluded node
        y[j] += xi * inv_sqrt_deg[j];
      }
    }
    for (std::size_t i = 0; i < n; ++i) y[i] = 0.5 * (y[i] + x[i]);
  };

  // Deterministic random start vector, orthogonal to w.
  support::Rng rng(opts.seed);
  std::vector<double> x(n);
  for (double& xi : x) xi = rng.uniform01() - 0.5;
  axpy(x, -dot(x, w), w);
  double xn = norm(x);
  if (xn < 1e-30) {
    // Pathological start (can only happen for tiny n); perturb.
    x[0] += 1.0;
    axpy(x, -dot(x, w), w);
    xn = norm(x);
  }
  scale(x, 1.0 / xn);

  double mu_prev = 0.0;
  for (std::uint32_t it = 0; it < opts.max_iterations; ++it) {
    matvec(x);
    // Re-orthogonalize against the known top eigenvector (cancels drift).
    axpy(y, -dot(y, w), w);
    const double yn = norm(y);
    if (yn < 1e-30) {
      // x was (numerically) in the span of w: the deflated operator is null,
      // i.e. lambda2 of M is 0 => lambda2 of N is -1.
      res.lambda2 = -1.0;
      res.gap = 2.0;
      res.converged = true;
      res.iterations = it;
      res.eigenvector = x;
      return res;
    }
    const double mu = yn;  // since |x| = 1, |Mx| approximates top |eigenvalue|
    scale(y, 1.0 / yn);
    x.swap(y);
    res.iterations = it + 1;
    if (it > 8 && std::abs(mu - mu_prev) < opts.tolerance) {
      res.converged = true;
      mu_prev = mu;
      break;
    }
    mu_prev = mu;
  }

  // Rayleigh quotient of the final iterate under M, mapped back to N.
  matvec(x);
  const double mu = dot(x, y);
  res.lambda2 = 2.0 * mu - 1.0;
  res.gap = 1.0 - res.lambda2;
  // Convert eigenvector of N back to the random-walk embedding
  // (entries divided by sqrt(d)) — this is what sweep cuts want.
  res.eigenvector.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    res.eigenvector[i] = x[i] * inv_sqrt_deg[i];
  return res;
}

}  // namespace dex::graph
