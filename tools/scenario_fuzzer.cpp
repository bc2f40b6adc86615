// Property-based scenario fuzzer: generates random adversary campaigns
// (adversary/campaign.h) across every overlay backend and both delivery
// regimes (sync = lockstep, event = latency/loss), runs each through the
// real ScenarioRunner, and checks the repo's cross-cutting invariants on
// the result:
//
//   determinism     same case run twice -> byte-identical trace + summary
//   trial-jobs      intra-step threads (set_intra_jobs) never change bytes
//   sweep-jobs      Executor --jobs 1 vs 4 emit byte-identical sink streams
//   conservation    completed + shed == the campaign's offered-op budget
//   acked-keys      no acked key lost: zero failed lookups/writes without
//                   departures, deletion-bounded blips with them
//   structure       trace covers every step; population never below 3;
//                   sampled spectral gap never negative
//   csr             DEX_CHECK_CSR=1 is exported before the first run, so
//                   every AdversaryView::advance() cross-checks patch==rebuild
//                   (a mismatch aborts loudly rather than returning)
//
// A failing case is shrunk greedily (drop phases, sync engine, no serve, no
// traffic, fewer steps, smaller network) to a one-line repro that replays
// with `scenario_fuzzer --case 'LINE'` and is restated as an equivalent
// dex_sim_cli command. `--inject-bug conservation` deliberately breaks the
// conservation check's observed count by one — the self-test that the
// fuzzer finds and shrinks a real violation end to end.
//
// Every generated case is printed to stdout as `ok <case-line>` (stderr
// carries progress), so stdout is deterministic for a fixed --seed/--budget
// and doubles as a seed-corpus source (tests/fuzz_corpus.txt is made of
// these lines; `--replay FILE` re-checks them in CI).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/campaign.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "sim/sinks.h"
#include "support/prng.h"

namespace {

using dex::adversary::CampaignSpec;
using dex::sim::ScenarioResult;
using dex::sim::ScenarioSpec;

// ------------------------------------------------------------------ cases

/// Everything one fuzz case needs to rebuild its trial: the knobs are a
/// strict subset of what dex_sim_cli exposes, so every case restates as a
/// CLI command.
struct FuzzCase {
  std::uint64_t seed = 1;
  std::string backend = "dex-worstcase";
  bool event = false;
  std::string latency = "fixed:0";  // LatencyModel canonical spelling
  double loss = 0.0;
  std::size_t n0 = 32;
  std::size_t steps = 16;
  std::size_t batch = 2;
  std::string workload;  // empty = no traffic
  std::size_t ops = 8;
  bool serve = false;
  std::size_t clients = 4;
  std::size_t qdepth = 8;
  std::string campaign = "churn:0-";
};

std::string to_line(const FuzzCase& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " backend=" << c.backend
     << " engine=" << (c.event ? "event" : "sync") << " latency=" << c.latency
     << " loss=" << c.loss << " n0=" << c.n0 << " steps=" << c.steps
     << " batch=" << c.batch
     << " workload=" << (c.workload.empty() ? "none" : c.workload)
     << " ops=" << c.ops << " serve=" << (c.serve ? 1 : 0)
     << " clients=" << c.clients << " qdepth=" << c.qdepth << " campaign=\""
     << c.campaign << '"';
  return os.str();
}

/// Parses a to_line() line back into a case. The campaign is the quoted
/// tail; everything before it is whitespace-separated key=value. Returns
/// nullopt with a one-line message on anything malformed.
std::optional<FuzzCase> from_line(const std::string& line,
                                  std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<FuzzCase> {
    if (error) *error = msg;
    return std::nullopt;
  };
  const std::string tag = "campaign=\"";
  const auto cpos = line.find(tag);
  if (cpos == std::string::npos) return fail("missing campaign=\"...\"");
  const auto cend = line.rfind('"');
  if (cend <= cpos + tag.size() - 1) return fail("unterminated campaign");
  FuzzCase c;
  c.campaign = line.substr(cpos + tag.size(), cend - cpos - tag.size());
  std::istringstream head(line.substr(0, cpos));
  std::string tok;
  while (head >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) return fail("bad token '" + tok + "'");
    const std::string k = tok.substr(0, eq);
    const std::string v = tok.substr(eq + 1);
    try {
      if (k == "seed") {
        c.seed = std::stoull(v);
      } else if (k == "backend") {
        c.backend = v;
      } else if (k == "engine") {
        if (v != "sync" && v != "event") return fail("engine must be sync|event");
        c.event = v == "event";
      } else if (k == "latency") {
        c.latency = v;
      } else if (k == "loss") {
        c.loss = std::stod(v);
      } else if (k == "n0") {
        c.n0 = std::stoull(v);
      } else if (k == "steps") {
        c.steps = std::stoull(v);
      } else if (k == "batch") {
        c.batch = std::stoull(v);
      } else if (k == "workload") {
        c.workload = v == "none" ? "" : v;
      } else if (k == "ops") {
        c.ops = std::stoull(v);
      } else if (k == "serve") {
        c.serve = v != "0";
      } else if (k == "clients") {
        c.clients = std::stoull(v);
      } else if (k == "qdepth") {
        c.qdepth = std::stoull(v);
      } else {
        return fail("unknown key '" + k + "'");
      }
    } catch (const std::exception&) {
      return fail("bad value for '" + k + "': '" + v + "'");
    }
  }
  return c;
}

/// The case's trial spec around its already-parsed campaign.
ScenarioSpec to_spec(const FuzzCase& c, const CampaignSpec& campaign) {
  ScenarioSpec spec;
  spec.seed = c.seed;
  spec.steps = c.steps;
  spec.batch_size = c.batch;
  spec.gap_every = 4;
  spec.campaign = campaign;
  spec.label = "fuzz";
  if (!c.workload.empty()) {
    spec.traffic.workload = c.workload;
    spec.traffic.ops_per_step = c.ops;
    spec.traffic.keyspace = 512;
  }
  if (c.event) {
    spec.event.enabled = true;
    spec.event.latency = *dex::sim::LatencyModel::parse(c.latency);
    spec.event.loss_rate = c.loss;
  }
  if (c.serve) {
    spec.serve.enabled = true;
    spec.serve.clients = c.clients;
    spec.serve.queue_depth = c.qdepth;
  }
  return spec;
}

std::string to_cli_command(const FuzzCase& c) {
  std::ostringstream os;
  os << "dex_sim_cli --backend " << c.backend << " --n0 " << c.n0
     << " --seed " << c.seed << " --steps " << c.steps << " --batch-size "
     << c.batch << " --gap-every 4 --campaign '" << c.campaign << '\'';
  if (c.event) {
    os << " --engine event --latency " << c.latency << " --loss " << c.loss;
  }
  if (!c.workload.empty()) {
    os << " --workload " << c.workload << " --ops-per-step " << c.ops
       << " --keys 512";
  }
  if (c.serve) {
    os << " --serve --clients " << c.clients << " --queue-depth "
       << c.qdepth;
  }
  return os.str();
}

// ------------------------------------------------------------- generation

const std::vector<std::string>& phase_pool() {
  // greedy-spectral is excluded: its per-event candidate scoring is too
  // slow for a smoke budget. Everything else in the registry is fair game.
  static const std::vector<std::string> pool = [] {
    std::vector<std::string> p;
    for (const auto& s : dex::sim::known_strategies()) {
      if (s != "greedy-spectral") p.push_back(s);
    }
    return p;
  }();
  return pool;
}

std::string random_phase_body(dex::support::Rng& rng) {
  const auto& pool = phase_pool();
  if (rng.below(4) == 0) {  // mix of two strategies with small weights
    const auto& a = pool[rng.below(pool.size())];
    const auto& b = pool[rng.below(pool.size())];
    std::ostringstream os;
    os << "mix(" << a << '*' << (1 + rng.below(3)) << '+' << b << '*'
       << (1 + rng.below(3)) << ')';
    return os.str();
  }
  return pool[rng.below(pool.size())];
}

std::string random_campaign(dex::support::Rng& rng, std::size_t steps) {
  const std::size_t phases = 1 + rng.below(3);
  std::ostringstream os;
  std::size_t begin = 0;
  for (std::size_t p = 0; p < phases; ++p) {
    if (p) os << ';';
    os << random_phase_body(rng) << ':' << begin;
    os << '-';
    if (p + 1 < phases) {
      const std::size_t len = 1 + rng.below(std::max<std::size_t>(steps / phases, 2));
      begin += len;
      os << begin;
    }
    switch (rng.below(6)) {
      case 0:
        os << ",rate=0." << (25 * (1 + rng.below(3)));
        break;
      case 1:
        os << ",load=" << (2 + rng.below(2));
        break;
      case 2:
        os << ",load=2,diurnal=" << (4 + 2 * rng.below(3));
        break;
      default:
        break;
    }
  }
  return os.str();
}

FuzzCase random_case(std::uint64_t run_seed, std::size_t index) {
  dex::support::Rng rng(dex::support::mix64(
      run_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1))));
  FuzzCase c;
  c.seed = 1 + rng.below(1u << 16);
  const auto& backends = dex::sim::known_overlays();
  c.backend = backends[rng.below(backends.size())];
  c.n0 = 24 + 8 * rng.below(4);  // 24..48
  c.steps = 16 + 8 * rng.below(3);
  c.batch = std::size_t{1} << rng.below(4);  // 1,2,4,8
  c.event = rng.below(2) == 0;
  if (c.event) {
    static const char* kLatencies[] = {"fixed:0", "fixed:2", "uniform:1,3",
                                       "exp:2"};
    c.latency = kLatencies[rng.below(4)];
    static const double kLoss[] = {0.0, 0.0, 0.05, 0.2};
    c.loss = kLoss[rng.below(4)];
  }
  if (rng.below(4) != 0) {
    static const char* kWorkloads[] = {"uniform", "zipf", "hotspot"};
    c.workload = kWorkloads[rng.below(3)];
    c.ops = std::size_t{4} << rng.below(3);  // 4,8,16
    if (c.event && rng.below(3) == 0) {
      c.serve = true;
      c.clients = std::size_t{2} << rng.below(3);
      c.qdepth = std::size_t{4} << rng.below(3);
    }
  }
  c.campaign = random_campaign(rng, c.steps);
  return c;
}

// -------------------------------------------------------------- execution

struct RunOutput {
  std::string trace;
  std::string summary;
  ScenarioResult result;
};

RunOutput run_case(const FuzzCase& c, const CampaignSpec& campaign,
                   unsigned trial_jobs = 1) {
  auto overlay = dex::sim::make_overlay(c.backend, c.n0,
                                        dex::sim::overlay_seed(c.seed));
  if (trial_jobs > 1) overlay->set_intra_jobs(trial_jobs);
  auto strategy = dex::sim::make_campaign_strategy(campaign);
  dex::sim::ScenarioRunner runner(*overlay, *strategy, to_spec(c, campaign));
  RunOutput out;
  out.result = runner.run();
  out.trace = dex::sim::trace_csv(out.result);
  out.summary = dex::sim::summary_json(out.result);
  return out;
}

/// The sweep-jobs probe: the case as a 2-seed ExperimentPlan through the
/// Executor, trace + summary streamed into strings. Byte-identical for any
/// jobs value or it is a violation.
std::string run_sweep(const FuzzCase& c, const CampaignSpec& campaign,
                      std::size_t jobs) {
  dex::sim::ExperimentPlan plan;
  plan.backends = {c.backend};
  plan.scenarios = {"churn"};  // ignored: base.campaign overrides it
  plan.populations = {c.n0};
  plan.batch_sizes = {c.batch};
  plan.seeds = {c.seed, c.seed + 1};
  plan.base = to_spec(c, campaign);
  std::ostringstream csv, json;
  dex::sim::CsvTraceSink trace_sink(csv);
  dex::sim::JsonSummarySink summary_sink(json);
  dex::sim::Executor exec({jobs, 1});
  exec.add_sink(trace_sink);
  exec.add_sink(summary_sink);
  exec.run(plan.expand());
  return csv.str() + json.str();
}

struct Violation {
  std::string invariant;
  std::string detail;
};

struct CheckOptions {
  bool inject_conservation = false;
  bool sweep_probe = false;  // the (slower) Executor jobs probe
};

/// Runs one case and checks every applicable invariant. nullopt = clean.
std::optional<Violation> check_case(const FuzzCase& c,
                                    const CheckOptions& opt) {
  std::string parse_error;
  const auto campaign = dex::sim::parse_campaign_spec(c.campaign,
                                                      &parse_error);
  if (!campaign) {
    return Violation{"campaign-parse", parse_error};
  }

  const RunOutput a = run_case(c, *campaign);
  const RunOutput b = run_case(c, *campaign);
  if (a.trace != b.trace || a.summary != b.summary) {
    return Violation{"determinism", "re-run produced different bytes"};
  }
  const RunOutput tj = run_case(c, *campaign, /*trial_jobs=*/2);
  if (a.trace != tj.trace || a.summary != tj.summary) {
    return Violation{"trial-jobs", "set_intra_jobs(2) changed bytes"};
  }

  if (!c.workload.empty()) {
    const std::size_t offered = campaign->total_ops(c.ops, c.steps);
    std::size_t got = c.serve
                          ? a.result.serve_completed + a.result.serve_shed
                          : a.result.total_ops;
    if (opt.inject_conservation) ++got;  // the self-test's planted bug
    if (got != offered) {
      std::ostringstream os;
      os << "completed+shed " << got << " != offered " << offered;
      return Violation{"conservation", os.str()};
    }
    // Durability: with no departures every route stays intact, so the
    // failure counters must be exactly zero (the serve suite pins the same
    // thing for insert-only churn). Departures may sever the occasional
    // route mid-heal — the repo's contract bounds those blips, it does not
    // forbid them — so with deletions the counters only get a
    // deletion-scaled ceiling; a durability bug (acked keys lost wholesale)
    // still blows through it.
    const std::size_t failures =
        a.result.total_failed_lookups + a.result.total_failed_writes;
    const std::size_t failure_cap =
        a.result.total_deletes == 0 ? 0 : 2 * a.result.total_deletes + 4;
    if (failures > failure_cap) {
      std::ostringstream os;
      os << "lost acked keys: failed_lookups="
         << a.result.total_failed_lookups
         << " failed_writes=" << a.result.total_failed_writes << " (cap "
         << failure_cap << " for " << a.result.total_deletes << " deletes)";
      return Violation{"acked-keys", os.str()};
    }
  }

  if (a.result.trace.size() != c.steps) {
    std::ostringstream os;
    os << "trace rows " << a.result.trace.size() << " != steps " << c.steps;
    return Violation{"structure", os.str()};
  }
  if (a.result.final_n < 3) {
    return Violation{"structure", "population fell below 3"};
  }
  if (a.result.min_gap < 0.0) {
    std::ostringstream os;
    os << "sampled spectral gap went negative: " << a.result.min_gap;
    return Violation{"structure", os.str()};
  }

  if (opt.sweep_probe) {
    const std::string one = run_sweep(c, *campaign, 1);
    const std::string four = run_sweep(c, *campaign, 4);
    if (one != four) {
      return Violation{"sweep-jobs", "Executor jobs=1 vs jobs=4 bytes differ"};
    }
  }
  return std::nullopt;
}

// -------------------------------------------------------------- shrinking

/// Drops the last campaign phase and re-opens the new last phase's range
/// (BEGIN-END -> BEGIN-). nullopt when only one phase remains.
std::optional<std::string> drop_last_phase(const std::string& campaign) {
  const auto semi = campaign.rfind(';');
  if (semi == std::string::npos) return std::nullopt;
  std::string head = campaign.substr(0, semi);
  const auto last_semi = head.rfind(';');
  const auto phase_at = last_semi == std::string::npos ? 0 : last_semi + 1;
  const auto colon = head.find(':', phase_at);
  if (colon == std::string::npos) return std::nullopt;
  const auto dash = head.find('-', colon);
  if (dash == std::string::npos) return std::nullopt;
  // Keep "BEGIN-", drop the END and any ",opt=..." tail of the range token.
  auto end = head.find(',', dash);
  head.erase(dash + 1, (end == std::string::npos ? head.size() : end) -
                           (dash + 1));
  return head;
}

/// Greedy shrink: apply each reduction, keep it iff the case still fails
/// the same invariant, loop until a full pass changes nothing.
FuzzCase shrink_case(FuzzCase c, const std::string& invariant,
                     const CheckOptions& opt) {
  auto still_fails = [&](const FuzzCase& cand) {
    const auto v = check_case(cand, opt);
    return v && v->invariant == invariant;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<FuzzCase> candidates;
    if (const auto fewer = drop_last_phase(c.campaign)) {
      FuzzCase cand = c;
      cand.campaign = *fewer;
      candidates.push_back(cand);
    }
    if (c.serve) {
      FuzzCase cand = c;
      cand.serve = false;
      candidates.push_back(cand);
    }
    if (c.event) {
      FuzzCase cand = c;
      cand.event = false;
      cand.serve = false;
      cand.latency = "fixed:0";
      cand.loss = 0.0;
      candidates.push_back(cand);
    }
    if (c.loss != 0.0) {
      FuzzCase cand = c;
      cand.loss = 0.0;
      candidates.push_back(cand);
    }
    if (c.latency != "fixed:0") {
      FuzzCase cand = c;
      cand.latency = "fixed:0";
      candidates.push_back(cand);
    }
    if (!c.workload.empty() && invariant != "conservation" &&
        invariant != "acked-keys") {
      FuzzCase cand = c;
      cand.workload.clear();
      cand.serve = false;
      candidates.push_back(cand);
    }
    if (c.steps > 8) {
      FuzzCase cand = c;
      cand.steps = std::max<std::size_t>(c.steps / 2, 8);
      candidates.push_back(cand);
    }
    if (c.n0 > 24) {
      FuzzCase cand = c;
      cand.n0 = 24;
      candidates.push_back(cand);
    }
    if (c.batch > 1) {
      FuzzCase cand = c;
      cand.batch = 1;
      candidates.push_back(cand);
    }
    if (c.serve && (c.clients > 2 || c.qdepth > 4)) {
      FuzzCase cand = c;
      cand.clients = 2;
      cand.qdepth = 4;
      candidates.push_back(cand);
    }
    for (const auto& cand : candidates) {
      if (still_fails(cand)) {
        c = cand;
        changed = true;
        break;  // restart the pass from the shrunk case
      }
    }
  }
  return c;
}

// ------------------------------------------------------------------- main

void report_violation(const FuzzCase& found, const Violation& v,
                      const CheckOptions& opt, const char* repro_out) {
  const FuzzCase shrunk = shrink_case(found, v.invariant, opt);
  std::printf("VIOLATION invariant=%s detail=%s\n", v.invariant.c_str(),
              v.detail.c_str());
  std::printf("found:  %s\n", to_line(found).c_str());
  std::printf("shrunk: %s\n", to_line(shrunk).c_str());
  std::printf("replay: scenario_fuzzer --case '%s'\n",
              to_line(shrunk).c_str());
  std::printf("cli:    %s\n", to_cli_command(shrunk).c_str());
  if (repro_out) {
    std::ofstream out(repro_out);
    out << to_line(shrunk) << '\n';
  }
}

int usage(std::FILE* os, int code) {
  std::fprintf(
      os,
      "usage: scenario_fuzzer [--seed S] [--budget N] [--replay FILE]\n"
      "                       [--case 'LINE'] [--inject-bug conservation]\n"
      "                       [--repro-out FILE]\n"
      "\n"
      "Generates N random campaign scenarios from seed S, runs each under\n"
      "the sync and event regimes and checks determinism, op\n"
      "conservation, acked-key durability and structural invariants.\n"
      "Prints `ok <case>` per clean case (a corpus source); on the first\n"
      "violation shrinks to a one-line repro and exits 1.\n"
      "\n"
      "  --replay FILE   re-check the case lines in FILE (the seed corpus)\n"
      "  --case 'LINE'   re-check one serialized case line\n"
      "  --inject-bug conservation\n"
      "                  break the conservation check's observed count by\n"
      "                  one (self-test: the fuzzer must find + shrink it)\n"
      "  --repro-out F   also write the shrunk repro line to F\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  // Latch the CSR cross-check before any AdversaryView::advance() runs: every
  // fuzz case then verifies patch==rebuild on every step, for free.
  setenv("DEX_CHECK_CSR", "1", 1);

  std::uint64_t seed = 1;
  std::size_t budget = 50;
  std::string replay_path;
  std::string case_line;
  const char* repro_out = nullptr;
  CheckOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--budget") {
      budget = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--replay") {
      replay_path = value();
    } else if (arg == "--case") {
      case_line = value();
    } else if (arg == "--inject-bug") {
      const std::string which = value();
      if (which != "conservation") {
        std::fprintf(stderr, "unknown bug '%s' (valid: conservation)\n",
                     which.c_str());
        return 2;
      }
      opt.inject_conservation = true;
    } else if (arg == "--repro-out") {
      repro_out = value();
    } else if (arg == "--help" || arg == "-h") {
      return usage(stdout, 0);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return usage(stderr, 2);
    }
  }

  // Replay modes: corpus file or a single case line.
  if (!replay_path.empty() || !case_line.empty()) {
    std::vector<std::string> lines;
    if (!case_line.empty()) lines.push_back(case_line);
    if (!replay_path.empty()) {
      std::ifstream in(replay_path);
      if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", replay_path.c_str());
        return 2;
      }
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty() || line[0] == '#') continue;
        if (line.rfind("ok ", 0) == 0) line = line.substr(3);
        lines.push_back(line);
      }
    }
    std::size_t index = 0;
    for (const auto& line : lines) {
      ++index;
      std::string error;
      const auto c = from_line(line, &error);
      if (!c) {
        std::fprintf(stderr, "line %zu: %s\n", index, error.c_str());
        return 2;
      }
      CheckOptions replay_opt = opt;
      replay_opt.sweep_probe = true;  // corpus is small; probe every case
      if (const auto v = check_case(*c, replay_opt)) {
        report_violation(*c, *v, replay_opt, repro_out);
        return 1;
      }
      std::printf("ok %s\n", to_line(*c).c_str());
    }
    std::fprintf(stderr, "replayed %zu case(s), all clean\n", lines.size());
    return 0;
  }

  for (std::size_t i = 0; i < budget; ++i) {
    const FuzzCase c = random_case(seed, i);
    CheckOptions case_opt = opt;
    case_opt.sweep_probe = (i % 4) == 3;  // the Executor probe is ~6x a run
    std::fprintf(stderr, "[%zu/%zu] %s\n", i + 1, budget,
                 to_line(c).c_str());
    if (const auto v = check_case(c, case_opt)) {
      report_violation(c, *v, case_opt, repro_out);
      return 1;
    }
    std::printf("ok %s\n", to_line(c).c_str());
  }
  std::fprintf(stderr, "%zu case(s), all invariants held\n", budget);
  return 0;
}
