#include "adversary/campaign.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "support/assert.h"

namespace dex::adversary {

namespace {

/// Strict non-negative integer parse (no sign, no trailing junk).
bool parse_size(const std::string& s, std::size_t& out) {
  if (s.empty()) return false;
  std::size_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const std::size_t d = static_cast<std::size_t>(c - '0');
    if (v > (std::numeric_limits<std::size_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

/// Strict non-negative double parse (no trailing junk).
bool parse_real(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (!(v >= 0.0) || !std::isfinite(v)) return false;
  out = v;
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

bool known_name(const std::vector<std::string>& known, const std::string& n) {
  for (const auto& k : known) {
    if (k == n) return true;
  }
  return false;
}

std::string phase_err(std::size_t idx, const std::string& msg) {
  return "phase " + std::to_string(idx + 1) + ": " + msg;
}

/// Splits "name" or "name*weight" (mix part).
bool parse_mix_part(const std::string& s, MixPart& out) {
  const std::size_t star = s.find('*');
  out.strategy = s.substr(0, star);
  out.weight = 1.0;
  if (star != std::string::npos) {
    if (!parse_real(s.substr(star + 1), out.weight) || out.weight <= 0.0)
      return false;
  }
  return !out.strategy.empty();
}

}  // namespace

// --------------------------------------------------------------- CampaignSpec

std::size_t CampaignSpec::phase_index_at(std::size_t step) const {
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].contains(step)) return i;
  }
  return kNoPhase;
}

double CampaignSpec::load_at(std::size_t step) const {
  const CampaignPhase* ph = phase_at(step);
  if (ph == nullptr) return 1.0;
  if (ph->diurnal_period < 2) return ph->load;
  // Triangle wave over the period: 1 at the phase boundary, `load` at the
  // half-period peak, back to 1. Piecewise linear keeps the curve exact in
  // binary floating point — no libm, no platform drift.
  const std::size_t pos = (step - ph->begin) % ph->diurnal_period;
  const double x =
      static_cast<double>(pos) / static_cast<double>(ph->diurnal_period);
  const double tri = 1.0 - std::fabs(2.0 * x - 1.0);
  return 1.0 + (ph->load - 1.0) * tri;
}

std::size_t CampaignSpec::scaled_ops(std::size_t ops_per_step,
                                     std::size_t step) const {
  const double exact = static_cast<double>(ops_per_step) * load_at(step);
  return static_cast<std::size_t>(exact + 0.5);
}

std::uint64_t CampaignSpec::total_ops(std::size_t ops_per_step,
                                      std::size_t steps) const {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < steps; ++t) total += scaled_ops(ops_per_step, t);
  return total;
}

// --------------------------------------------------------------------- parse

std::optional<std::vector<ChurnAction>> load_churn_trace(
    const std::string& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open replay trace '" + path + "'";
    return std::nullopt;
  }
  std::vector<ChurnAction> script;
  std::size_t op_col = 0;
  std::size_t target_col = 1;
  bool saw_header = false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto cells = split(line, ',');
    if (!saw_header) {
      // A ScenarioRunner trace leads with a header naming op/target; a bare
      // listing starts straight with data rows (op in column 0).
      saw_header = true;
      bool is_header = false;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i] == "op") {
          op_col = i;
          is_header = true;
        }
        if (cells[i] == "target") target_col = i;
      }
      if (is_header) continue;
    }
    if (cells.size() <= op_col || cells.size() <= target_col) continue;
    const std::string& op = cells[op_col];
    const std::string& target = cells[target_col];
    if (op != "insert" && op != "delete") continue;  // batch/settle/... rows
    std::size_t t = 0;
    if (target.empty() || !parse_size(target, t)) {
      error = "replay trace '" + path + "' line " + std::to_string(lineno) +
              ": bad target '" + target + "'";
      return std::nullopt;
    }
    script.push_back({op == "insert", static_cast<NodeId>(t)});
  }
  if (script.empty()) {
    error = "replay trace '" + path + "' has no insert/delete actions";
    return std::nullopt;
  }
  return script;
}

std::optional<CampaignSpec> parse_campaign(
    const std::string& text, const std::vector<std::string>& known,
    std::string& error) {
  CampaignSpec spec;
  spec.source = text;
  if (text.empty()) {
    error = "empty campaign spec";
    return std::nullopt;
  }
  const auto phase_strs = split(text, ';');
  std::size_t prev_end = 0;
  bool prev_open = false;
  for (std::size_t pi = 0; pi < phase_strs.size(); ++pi) {
    const std::string& ps = phase_strs[pi];
    if (ps.empty()) {
      error = phase_err(pi, "empty phase (stray ';'?)");
      return std::nullopt;
    }
    CampaignPhase ph;
    // ---- body: NAME | mix(...) | replay(...) ----
    std::size_t body_end;
    if (ps.rfind("mix(", 0) == 0 || ps.rfind("replay(", 0) == 0) {
      body_end = ps.find(')');
      if (body_end == std::string::npos) {
        error = phase_err(pi, "missing ')' in '" + ps + "'");
        return std::nullopt;
      }
      ++body_end;  // past the ')'
    } else {
      body_end = ps.find_first_of(":,");
      if (body_end == std::string::npos) body_end = ps.size();
    }
    const std::string body = ps.substr(0, body_end);
    if (body.rfind("mix(", 0) == 0) {
      const std::string inner = body.substr(4, body.size() - 5);
      for (const auto& part_str : split(inner, '+')) {
        MixPart part;
        if (!parse_mix_part(part_str, part)) {
          error = phase_err(
              pi, "bad mix part '" + part_str + "' (want name or name*weight)");
          return std::nullopt;
        }
        if (!known_name(known, part.strategy)) {
          error = phase_err(pi, "unknown strategy '" + part.strategy +
                                    "' (valid: " + join_names(known) + ")");
          return std::nullopt;
        }
        ph.mix.push_back(part);
      }
      if (ph.mix.empty()) {
        error = phase_err(pi, "mix() needs at least one part");
        return std::nullopt;
      }
    } else if (body.rfind("replay(", 0) == 0) {
      ph.trace_path = body.substr(7, body.size() - 8);
      if (ph.trace_path.empty()) {
        error = phase_err(pi, "replay() needs a file path");
        return std::nullopt;
      }
      std::string trace_err;
      auto script = load_churn_trace(ph.trace_path, trace_err);
      if (!script) {
        error = phase_err(pi, trace_err);
        return std::nullopt;
      }
      ph.script = std::move(*script);
    } else {
      ph.strategy = body;
      if (!known_name(known, ph.strategy)) {
        error = phase_err(pi, "unknown strategy '" + ph.strategy +
                                  "' (valid: " + join_names(known) + ")");
        return std::nullopt;
      }
    }
    // ---- optional :range and ,key=value options ----
    std::string rest = ps.substr(body_end);
    bool have_range = false;
    if (!rest.empty() && rest[0] == ':') {
      const std::size_t range_end = rest.find(',');
      const std::string range =
          rest.substr(1, range_end == std::string::npos ? std::string::npos
                                                        : range_end - 1);
      const std::size_t dash = range.find('-');
      std::size_t b = 0;
      std::size_t e = kOpenEnd;
      bool ok = dash != std::string::npos &&
                parse_size(range.substr(0, dash), b);
      const std::string end_str =
          dash == std::string::npos ? "" : range.substr(dash + 1);
      if (ok && !end_str.empty()) ok = parse_size(end_str, e) && b < e;
      if (!ok) {
        error = phase_err(pi, "bad range '" + range +
                                  "' (want BEGIN-END or BEGIN-, half-open, "
                                  "BEGIN < END)");
        return std::nullopt;
      }
      ph.begin = b;
      ph.end = e;
      have_range = true;
      rest = range_end == std::string::npos ? "" : rest.substr(range_end);
    }
    if (!have_range) {
      if (prev_open) {
        error = phase_err(pi,
                          "follows an open-ended phase and would never run; "
                          "give it an explicit BEGIN-END range");
        return std::nullopt;
      }
      ph.begin = prev_end;
      ph.end = kOpenEnd;
    }
    while (!rest.empty()) {
      if (rest[0] != ',') {
        error = phase_err(pi, "trailing junk '" + rest + "'");
        return std::nullopt;
      }
      const std::size_t next = rest.find(',', 1);
      const std::string opt =
          rest.substr(1, next == std::string::npos ? std::string::npos
                                                   : next - 1);
      const std::size_t eq = opt.find('=');
      const std::string key = opt.substr(0, eq);
      const std::string val =
          eq == std::string::npos ? "" : opt.substr(eq + 1);
      if (key == "rate") {
        if (!parse_real(val, ph.rate) || ph.rate > 1.0) {
          error = phase_err(
              pi, "rate must be a number in [0, 1], got '" + val + "'");
          return std::nullopt;
        }
      } else if (key == "load") {
        if (!parse_real(val, ph.load)) {
          error = phase_err(pi, "load must be a number >= 0, got '" + val +
                                    "'");
          return std::nullopt;
        }
      } else if (key == "diurnal") {
        if (!parse_size(val, ph.diurnal_period) || ph.diurnal_period < 2) {
          error = phase_err(
              pi, "diurnal must be a period of >= 2 steps, got '" + val + "'");
          return std::nullopt;
        }
      } else {
        error = phase_err(pi, "unknown option '" + key +
                                  "' (valid: rate, load, diurnal)");
        return std::nullopt;
      }
      rest = next == std::string::npos ? "" : rest.substr(next);
    }
    prev_open = ph.end == kOpenEnd;
    prev_end = ph.end;
    spec.phases.push_back(std::move(ph));
  }
  return spec;
}

// ---------------------------------------------------------- CampaignStrategy

CampaignStrategy::CampaignStrategy(CampaignSpec spec, const Factory& make)
    : spec_(std::move(spec)),
      built_(spec_.phases.size()),
      cursor_(spec_.phases.size(), 0) {
  DEX_ASSERT_MSG(!spec_.phases.empty(), "campaign has no phases");
  for (std::size_t i = 0; i < spec_.phases.size(); ++i) {
    const CampaignPhase& ph = spec_.phases[i];
    if (ph.is_replay()) continue;
    if (ph.is_mix()) {
      for (const MixPart& part : ph.mix) {
        auto s = make(part.strategy);
        DEX_ASSERT_MSG(s != nullptr, "campaign factory returned null");
        built_[i].push_back(std::move(s));
      }
    } else {
      auto s = make(ph.strategy);
      DEX_ASSERT_MSG(s != nullptr, "campaign factory returned null");
      built_[i].push_back(std::move(s));
    }
  }
}

Strategy* CampaignStrategy::strategy_for(const CampaignPhase& ph,
                                         std::size_t phase_index,
                                         support::Rng& rng) {
  auto& slots = built_[phase_index];
  DEX_ASSERT(!slots.empty());
  if (!ph.is_mix()) return slots.front().get();
  double total = 0.0;
  for (const MixPart& part : ph.mix) total += part.weight;
  // One weighted draw per step keeps the RNG stream consumption fixed
  // regardless of which part wins (determinism across mixes).
  double pick = rng.uniform01() * total;
  for (std::size_t i = 0; i < ph.mix.size(); ++i) {
    pick -= ph.mix[i].weight;
    if (pick <= 0.0) return slots[i].get();
  }
  return slots.back().get();
}

sim::ChurnBatch CampaignStrategy::replay_batch(CampaignPhase& ph,
                                               const AdversaryView& view,
                                               std::size_t want,
                                               std::size_t min_n,
                                               std::size_t max_n) {
  // Unlike Scripted (which aborts on invalid actions — harness bug), replay
  // tolerates drift: a recorded trace runs against a topology that has
  // diverged, so dead targets and bound violations are skipped.
  sim::ChurnBatch batch;
  const graph::CsrView& live = view.live_csr();
  const std::size_t floor_n = std::max<std::size_t>(min_n, 4);
  std::size_t n = view.n();
  std::unordered_set<NodeId> dying;
  std::unordered_set<NodeId> attached;
  std::size_t& at = cursor_[static_cast<std::size_t>(&ph - spec_.phases.data())];
  while (batch.size() < want && at < ph.script.size()) {
    const ChurnAction& a = ph.script[at++];
    const bool alive = live.alive(a.target);
    if (a.insert) {
      if (!alive || n >= max_n || dying.contains(a.target)) continue;
      batch.attach_to.push_back(a.target);
      attached.insert(a.target);
      ++n;
    } else {
      if (!alive || n <= floor_n || dying.contains(a.target) ||
          attached.contains(a.target)) {
        continue;
      }
      batch.victims.push_back(a.target);
      dying.insert(a.target);
      --n;
    }
  }
  return batch;
}

ChurnAction CampaignStrategy::next(const AdversaryView& view,
                                   support::Rng& rng, std::size_t min_n,
                                   std::size_t max_n) {
  const std::size_t t = step_++;
  const std::size_t pi = spec_.phase_index_at(t);
  if (pi == CampaignSpec::kNoPhase) {
    return fallback_.next(view, rng, min_n, max_n);
  }
  CampaignPhase& ph = spec_.phases[pi];
  if (ph.is_replay()) {
    const sim::ChurnBatch b = replay_batch(ph, view, 1, min_n, max_n);
    if (!b.attach_to.empty()) return {true, b.attach_to.front()};
    if (!b.victims.empty()) return {false, b.victims.front()};
    return fallback_.next(view, rng, min_n, max_n);
  }
  return strategy_for(ph, pi, rng)->next(view, rng, min_n, max_n);
}

sim::ChurnBatch CampaignStrategy::next_batch(const AdversaryView& view,
                                             support::Rng& rng,
                                             std::size_t min_n,
                                             std::size_t max_n,
                                             std::size_t batch_size) {
  const std::size_t t = step_++;
  const std::size_t pi = spec_.phase_index_at(t);
  if (pi == CampaignSpec::kNoPhase) return {};
  CampaignPhase& ph = spec_.phases[pi];
  // Rate gate: spend rate × batch_size events, resolving the fractional
  // remainder with one coin flip (consumed only when a remainder exists, so
  // rate=1 phases leave the RNG stream untouched).
  std::size_t want = batch_size;
  if (ph.rate < 1.0) {
    const double exact = static_cast<double>(batch_size) * ph.rate;
    want = static_cast<std::size_t>(exact);
    const double frac = exact - static_cast<double>(want);
    if (frac > 0.0 && rng.chance(frac)) ++want;
  }
  if (want == 0) return {};
  if (ph.is_replay()) return replay_batch(ph, view, want, min_n, max_n);
  return strategy_for(ph, pi, rng)->next_batch(view, rng, min_n, max_n, want);
}

}  // namespace dex::adversary
