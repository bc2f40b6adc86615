#pragma once

/// \file campaign.h
/// Phased adversary campaigns. Real incidents are not single-minded loops:
/// a flash crowd arrives, then a rack fails, then slow recovery churn takes
/// over. A CampaignSpec strings the existing Strategy zoo into exactly that
/// shape — an ordered list of phases, each owning a step range, a churn
/// intensity (`rate`), a traffic load multiplier (`load`, optionally shaped
/// by a diurnal curve), and a body that is either one registered strategy, a
/// weighted `mix(...)` of several, or a `replay(...)` of a recorded churn
/// trace.
///
/// Campaigns parse from a compact one-line string (the CLI's `--campaign`),
/// e.g.
///
///     flash-crowd:0-50;mass-failure:50-60,rate=0.3;burst:60-
///     mix(churn*3+spectral*1):0-40,load=2,diurnal=20;replay(trace.csv):40-
///
/// Grammar (phases separated by `;`):
///
///     phase   := body [ ':' range ] ( ',' key '=' value )*
///     body    := NAME | 'mix(' NAME ['*' WEIGHT] ('+' NAME ['*' WEIGHT])* ')'
///                     | 'replay(' PATH ')'
///     range   := BEGIN '-' [ END ]          // half-open [BEGIN, END)
///     key     := 'rate' | 'load' | 'diurnal'
///
/// An omitted range chains: the phase begins where the previous one ended
/// (step 0 for the first) and runs open-ended. Steps covered by no phase are
/// quiet — no churn, unit load. When phases overlap, the earliest phase in
/// the spec wins.
///
/// CampaignStrategy adapts a spec back onto the Strategy interface, so every
/// driver that takes a Strategy (both engines, ExperimentPlan) can run a
/// campaign unchanged. The driver contract is batch-first: call next_batch
/// exactly once per step, in step order — rate-gated and quiet phases
/// express themselves as *empty* batches, which both engines already treat
/// as legal steps. The per-step traffic multiplier (load_at / scaled_ops) is
/// read by the engines directly off the spec.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary.h"

namespace dex::adversary {

/// Open phase end ("runs until the driver stops").
inline constexpr std::size_t kOpenEnd = std::numeric_limits<std::size_t>::max();

/// One component of a mix(...) phase body.
struct MixPart {
  std::string strategy;
  double weight = 1.0;
};

struct CampaignPhase {
  /// Single-strategy body (empty for mix/replay phases).
  std::string strategy;
  /// Weighted mix body: one part is drawn per step, weight-proportionally.
  std::vector<MixPart> mix;
  /// Replay body: the recorded actions, loaded at parse time, plus the
  /// source path for diagnostics.
  std::vector<ChurnAction> script;
  std::string trace_path;

  /// Half-open step range [begin, end); end == kOpenEnd runs forever.
  std::size_t begin = 0;
  std::size_t end = kOpenEnd;
  /// Churn intensity in [0, 1]: the fraction of the driver's batch budget
  /// this phase actually spends (fractional remainders resolve by coin
  /// flip, so rate=0.3 at batch 1 means ~30% of steps churn).
  double rate = 1.0;
  /// Traffic load multiplier (≥ 0): scales ops-per-step while the phase is
  /// active. With diurnal_period == 0 the multiplier is flat; otherwise
  /// `load` is the *peak* of a triangle wave of that period (piecewise
  /// linear 1 → load → 1, deliberately libm-free so the curve is
  /// bit-reproducible everywhere).
  double load = 1.0;
  std::size_t diurnal_period = 0;

  [[nodiscard]] bool is_mix() const { return !mix.empty(); }
  [[nodiscard]] bool is_replay() const { return !trace_path.empty(); }
  [[nodiscard]] bool contains(std::size_t step) const {
    return step >= begin && (end == kOpenEnd || step < end);
  }
};

struct CampaignSpec {
  std::vector<CampaignPhase> phases;
  /// The compact string this spec parsed from (empty when built in code);
  /// archived by the summary emitters.
  std::string source;

  /// Index of the phase active at `step`, or kNoPhase for a quiet step.
  /// First matching phase wins.
  static constexpr std::size_t kNoPhase =
      std::numeric_limits<std::size_t>::max();
  [[nodiscard]] std::size_t phase_index_at(std::size_t step) const;
  [[nodiscard]] const CampaignPhase* phase_at(std::size_t step) const {
    const std::size_t i = phase_index_at(step);
    return i == kNoPhase ? nullptr : &phases[i];
  }

  /// Traffic load multiplier at `step` (1.0 on quiet steps; triangle-shaped
  /// within diurnal phases).
  [[nodiscard]] double load_at(std::size_t step) const;
  /// `ops_per_step` scaled by load_at(step), rounded to nearest.
  [[nodiscard]] std::size_t scaled_ops(std::size_t ops_per_step,
                                       std::size_t step) const;
  /// Σ_t scaled_ops(ops_per_step, t) for t in [0, steps) — the offered-load
  /// budget a serve-mode run distributes up front.
  [[nodiscard]] std::uint64_t total_ops(std::size_t ops_per_step,
                                        std::size_t steps) const;
};

/// Parses the compact campaign string. `known` is the list of valid
/// strategy names (sim::known_strategies() at the sim layer); replay trace
/// files are opened and loaded here, so a returned spec is fully runnable.
/// On failure returns nullopt and sets `error` to a single-line, actionable
/// message (phase index, offending token, valid alternatives).
[[nodiscard]] std::optional<CampaignSpec> parse_campaign(
    const std::string& text, const std::vector<std::string>& known,
    std::string& error);

/// Parses a churn trace for replay(...) phases: CSV with `op` and `target`
/// columns (the ScenarioRunner's own trace format works as-is — `batch`
/// summary rows and non-churn rows are skipped), or a bare header-less
/// `op,target` listing. Blank lines and `#` comments are ignored.
[[nodiscard]] std::optional<std::vector<ChurnAction>> load_churn_trace(
    const std::string& path, std::string& error);

/// Runs a CampaignSpec as a Strategy. Sub-strategies are built once per
/// phase (per mix part) through the injected factory, so the sim-layer
/// registry stays out of this header. The internal step counter advances
/// once per next()/next_batch() call — drivers call exactly one of them per
/// step, in step order (both engines do).
class CampaignStrategy final : public Strategy {
 public:
  using Factory =
      std::function<std::unique_ptr<Strategy>(const std::string& name)>;
  CampaignStrategy(CampaignSpec spec, const Factory& make);

  /// Single-event fallback (non-batch drivers): delegates to the active
  /// phase's strategy. Quiet steps and rate gates cannot be expressed as
  /// "no event" here, so quiet steps fall back to uniform churn and `rate`
  /// is ignored — campaign drivers should use next_batch.
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;

  /// One batch per step: resolves the active phase, rate-gates the batch
  /// budget (empty batch when gated to zero or no phase is active), then
  /// delegates — mix phases draw a part weight-proportionally, replay
  /// phases emit the next still-valid scripted actions (dead targets and
  /// bound violations are skipped, not fatal — recorded traces replay
  /// against topologies that diverge).
  sim::ChurnBatch next_batch(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t max_n,
                             std::size_t batch_size) override;

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  /// Steps consumed so far.
  [[nodiscard]] std::size_t step() const { return step_; }

 private:
  Strategy* strategy_for(const CampaignPhase& ph, std::size_t phase_index,
                         support::Rng& rng);
  sim::ChurnBatch replay_batch(CampaignPhase& ph, const AdversaryView& view,
                               std::size_t want, std::size_t min_n,
                               std::size_t max_n);

  CampaignSpec spec_;
  /// Per phase: one built strategy per mix part (single entry for plain
  /// phases, empty for replay phases).
  std::vector<std::vector<std::unique_ptr<Strategy>>> built_;
  /// Per phase: replay cursor.
  std::vector<std::size_t> cursor_;
  RandomChurn fallback_;
  std::size_t step_ = 0;
};

}  // namespace dex::adversary
