// Property-based scenario fuzzer: generates random adversary campaigns
// (adversary/campaign.h) across every overlay backend and both delivery
// regimes (sync = lockstep, event = latency/loss), runs each through the
// real ScenarioRunner, and checks the repo's cross-cutting invariants on
// the result:
//
//   determinism     same case run twice -> byte-identical trace + summary
//   sweep-jobs      Executor --jobs 1 vs 4 emit byte-identical sink streams
//   conservation    completed + shed == the campaign's offered-op budget
//   acked-keys      no acked key lost: zero failed lookups/writes without
//                   departures, deletion-bounded blips with them
//   structure       trace covers every step; population never below 3;
//                   sampled spectral gap never negative
//   audit           HealingOverlay::check_invariants() after every run (on
//                   DEX: the mapping audit and the 4-zeta load caps; a
//                   violation aborts loudly rather than returning)
//   csr             DEX_CHECK_CSR=1 is exported before the first run, so
//                   every AdversaryView::advance() cross-checks patch==rebuild
//                   (a mismatch aborts loudly rather than returning)
//
// A case is a dex_sim_cli argument line, read by the CLI's own parser
// (sim::parse_run_args), so each trial runs exactly the spec dex_sim_cli
// builds for the line and the printed case is its own repro:
//
//   --seed=9208 --backend=dex-amortized --n0=40 --steps=24 --batch-size=2
//   --engine=event --latency=exp:2 --loss=0 --gap-every=4
//   --campaign='churn:0-9;burst:9-,load=2'
//
// `--case` and `--replay` split a line as a POSIX shell would (single
// quotes only) and refuse a line that sets output options (--sweep, --jobs,
// --no-trace, --csv, --json) or that the CLI refuses: a bad line exits 2
// with `line N: <message>` before the first case runs.
//
// A failing case is shrunk greedily (drop phases, sync engine, no serve, no
// traffic, fewer steps, smaller network) by rewriting or dropping flags, to
// a one-line repro that replays with `scenario_fuzzer --case "LINE"` and
// runs as `dex_sim_cli LINE`. `--inject-bug conservation` deliberately
// breaks the conservation check's observed count by one — the self-test
// that the fuzzer finds and shrinks a real violation end to end.
//
// Every generated case is printed to stdout as `ok <case-line>` (stderr
// carries progress), so stdout is deterministic for a fixed --seed/--budget
// and doubles as a seed-corpus source (tests/fuzz_corpus.txt is made of
// these lines; `--replay FILE` re-checks them in CI).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adversary/campaign.h"
#include "sim/experiment.h"
#include "sim/run_args.h"
#include "sim/scenario.h"
#include "sim/sinks.h"
#include "support/parse.h"
#include "support/prng.h"

namespace {

using dex::sim::ExperimentPlan;
using dex::sim::ScenarioResult;
using dex::support::parse_u64;

// ------------------------------------------------------------------ cases

/// A fuzz case is a dex_sim_cli argument list (argv without the program
/// name); sim::parse_run_args reads it exactly as the CLI reads its argv.
using Args = std::vector<std::string>;

/// Characters a POSIX shell takes literally outside quotes. A value holding
/// any other character is printed in single quotes and must be read in
/// them.
bool shell_safe(char ch) {
  return std::isalnum(static_cast<unsigned char>(ch)) ||
         std::strchr("_@%+=:,./-", ch) != nullptr;
}

/// The case as a line a shell reads back into the same arguments: an
/// argument with a character outside shell_safe gets its value (what
/// follows `--name=`) single-quoted.
std::string to_line(const Args& args) {
  std::string line;
  for (const auto& arg : args) {
    if (!line.empty()) line += ' ';
    if (!arg.empty() && std::all_of(arg.begin(), arg.end(), shell_safe)) {
      line += arg;
      continue;
    }
    const auto eq = arg.rfind("--", 0) == 0 ? arg.find('=') : std::string::npos;
    const auto head = eq == std::string::npos ? 0 : eq + 1;
    line += arg.substr(0, head) + '\'' + arg.substr(head) + '\'';
  }
  return line;
}

/// Splits a case line into arguments as a POSIX shell would, with single
/// quotes the only quoting: blanks separate words, '...' is literal, and
/// any other character outside shell_safe is refused unless quoted (a
/// shell would read it differently). nullopt with a one-line message on a
/// refused character or an unterminated quote.
std::optional<Args> split_line(const std::string& line, std::string* error) {
  Args args;
  std::string word;
  bool in_word = false;
  bool quoted = false;
  for (const char ch : line) {
    if (ch == '\'') {
      quoted = !quoted;
      in_word = true;
    } else if (quoted || shell_safe(ch)) {
      word += ch;
      in_word = true;
    } else if (ch == ' ' || ch == '\t') {
      if (in_word) args.push_back(std::move(word));
      word.clear();
      in_word = false;
    } else {
      *error = std::string("unquoted '") + ch +
               "': put the value in single quotes";
      return std::nullopt;
    }
  }
  if (quoted) {
    *error = "unterminated single quote";
    return std::nullopt;
  }
  if (in_word) args.push_back(std::move(word));
  return args;
}

/// The case's plan, read by dex_sim_cli's own parser. A case is one traced
/// trial, so output options are refused; with --sweep refused, the CLI's
/// comma-list gate refuses any line that expands to more than one trial.
/// nullopt with the parser's one-line message in *error.
std::optional<ExperimentPlan> case_plan(const Args& args, std::string* error) {
  dex::sim::RunArgs run = dex::sim::parse_run_args(args);
  if (run.error.empty() && (run.sweep || !run.trace || run.help ||
                            !run.csv_path.empty() || !run.json_path.empty())) {
    run.error =
        "a case line is one traced trial: no --sweep, --jobs, --no-trace, "
        "--csv, --json or --help";
  }
  if (!run.error.empty()) {
    *error = run.error;
    return std::nullopt;
  }
  return std::move(run.plan);
}

/// Tokens args[i..] spend on flag `name`: 2 for `--name VALUE`, 1 for
/// `--name=VALUE` or the bare --serve switch, 0 when args[i] is not it.
std::size_t flag_span(const Args& args, std::size_t i,
                      const std::string& name) {
  const std::string flag = "--" + name;
  if (args[i] == flag) return name == "serve" ? 1 : 2;
  return args[i].rfind(flag + '=', 0) == 0 ? 1 : 0;
}

/// The case with every occurrence of the named flags dropped.
Args without(const Args& args, const std::vector<std::string>& names) {
  Args out;
  for (std::size_t i = 0; i < args.size();) {
    std::size_t span = 0;
    for (const auto& name : names) {
      span = std::max(span, flag_span(args, i, name));
    }
    if (span == 0) out.push_back(args[i]);
    i += std::max<std::size_t>(span, 1);
  }
  return out;
}

/// The case with `--name=VALUE` in place of the flag's first occurrence
/// (later ones dropped), or appended when the flag is absent.
Args with(const Args& args, const std::string& name, const std::string& value) {
  std::size_t at = 0;
  while (at < args.size() && flag_span(args, at, name) == 0) ++at;
  Args out = without(args, {name});
  out.insert(out.begin() + at, "--" + name + '=' + value);
  return out;
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

Args random_case(std::uint64_t run_seed, std::size_t index) {
  dex::support::Rng rng(dex::support::mix64(
      run_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1))));
  const auto flag = [](const char* name, auto value) {
    std::ostringstream os;
    os << "--" << name << '=' << value;
    return os.str();
  };
  Args c;
  c.push_back(flag("seed", 1 + rng.below(1u << 16)));
  const auto& backends = dex::sim::known_overlays();
  c.push_back(flag("backend", backends[rng.below(backends.size())]));
  c.push_back(flag("n0", 24 + 8 * rng.below(4)));  // 24..48
  const std::size_t steps = 16 + 8 * rng.below(3);
  c.push_back(flag("steps", steps));
  c.push_back(flag("batch-size", std::size_t{1} << rng.below(4)));  // 1..8
  const bool event = rng.below(2) == 0;
  if (event) {
    static const char* kLatencies[] = {"fixed:0", "fixed:2", "uniform:1,3",
                                       "exp:2"};
    c.push_back("--engine=event");
    c.push_back(flag("latency", kLatencies[rng.below(4)]));
    static const char* kLoss[] = {"0", "0", "0.05", "0.2"};
    c.push_back(flag("loss", kLoss[rng.below(4)]));
  }
  if (rng.below(4) != 0) {
    static const char* kWorkloads[] = {"uniform", "zipf", "hotspot"};
    c.push_back(flag("workload", kWorkloads[rng.below(3)]));
    c.push_back(flag("ops-per-step", std::size_t{4} << rng.below(3)));
    c.push_back("--keys=512");
    if (event && rng.below(3) == 0) {
      c.push_back("--serve");
      c.push_back(flag("clients", std::size_t{2} << rng.below(3)));
      c.push_back(flag("queue-depth", std::size_t{4} << rng.below(3)));
    }
  }
  c.push_back("--gap-every=4");
  c.push_back(flag("campaign", random_campaign(rng, steps)));
  return c;
}

// -------------------------------------------------------------- execution

struct RunOutput {
  std::string trace;
  std::string summary;
  ScenarioResult result;
};

/// Runs the plan's one trial in-process, then audits the overlay it leaves.
RunOutput run_case(const ExperimentPlan& plan) {
  const dex::sim::TrialSpec trial = plan.expand().front();
  auto overlay = trial.make_overlay();
  auto strategy = trial.make_strategy();
  dex::sim::ScenarioRunner runner(*overlay, *strategy, trial.spec);
  RunOutput out;
  out.result = runner.run();
  overlay->check_invariants();
  out.trace = dex::sim::trace_csv(out.result);
  out.summary = dex::sim::summary_json(out.result);
  return out;
}

/// The sweep-jobs probe: the case's plan over two seeds through the
/// Executor, trace + summary streamed into strings. Byte-identical for any
/// jobs value or it is a violation.
std::string run_sweep(ExperimentPlan plan, std::size_t jobs) {
  const std::uint64_t seed = plan.seeds.front();
  plan.seeds = {seed, seed + 1};
  std::ostringstream csv, json;
  dex::sim::CsvTraceSink trace_sink(csv);
  dex::sim::JsonSummarySink summary_sink(json);
  dex::sim::Executor exec({jobs});
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
std::optional<Violation> check_case(const Args& c, const CheckOptions& opt) {
  std::string error;
  const auto plan = case_plan(c, &error);
  if (!plan) return Violation{"invalid-case", error};
  const dex::sim::ScenarioSpec& spec = plan->base;

  const RunOutput a = run_case(*plan);
  const RunOutput b = run_case(*plan);
  if (a.trace != b.trace || a.summary != b.summary) {
    return Violation{"determinism", "re-run produced different bytes"};
  }

  if (spec.traffic.enabled()) {
    const std::size_t ops = spec.traffic.ops_per_step;
    const std::size_t offered = spec.campaign
                                    ? spec.campaign->total_ops(ops, spec.steps)
                                    : ops * spec.steps;
    std::size_t got = spec.serve.enabled
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

  if (a.result.trace.size() != spec.steps) {
    std::ostringstream os;
    os << "trace rows " << a.result.trace.size() << " != steps "
       << spec.steps;
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
    const std::string one = run_sweep(*plan, 1);
    const std::string four = run_sweep(*plan, 4);
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

/// The case with a mode switched off: its switch and its knobs dropped
/// (parse_run_args refuses a knob without its mode), and the serve flags
/// too, since --serve needs both the event engine and a workload.
Args without_mode(const Args& c, const std::string& mode,
                  const std::vector<std::string>& knobs) {
  return without(without(without(c, {mode, "serve"}), knobs),
                 dex::sim::kServeKnobs);
}

/// Greedy shrink: apply each reduction, keep it iff the case still fails
/// the same invariant, loop until a full pass changes nothing. Reductions
/// rewrite or drop flags; whether one applies is read off the case's plan.
Args shrink_case(Args c, const std::string& invariant,
                 const CheckOptions& opt) {
  auto still_fails = [&](const Args& cand) {
    const auto v = check_case(cand, opt);
    return v && v->invariant == invariant;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    std::string error;
    const auto plan = case_plan(c, &error);
    if (!plan) break;  // an invalid case has nothing to shrink
    const dex::sim::ScenarioSpec& s = plan->base;
    std::vector<Args> candidates;
    if (s.campaign) {
      if (const auto fewer = drop_last_phase(s.campaign->source)) {
        candidates.push_back(with(c, "campaign", *fewer));
      }
    }
    if (s.serve.enabled) {
      candidates.push_back(without_mode(c, "serve", dex::sim::kServeKnobs));
    }
    if (s.event.enabled) {
      candidates.push_back(without_mode(c, "engine", dex::sim::kEventKnobs));
    }
    if (s.event.loss_rate != 0.0) candidates.push_back(without(c, {"loss"}));
    if (s.event.latency.to_string() != "fixed:0") {
      candidates.push_back(without(c, {"latency"}));
    }
    if (s.traffic.enabled() && invariant != "conservation" &&
        invariant != "acked-keys") {
      candidates.push_back(
          without_mode(c, "workload", dex::sim::kTrafficKnobs));
    }
    if (s.steps > 8) {
      const std::size_t half = std::max<std::size_t>(s.steps / 2, 8);
      candidates.push_back(with(c, "steps", std::to_string(half)));
    }
    if (plan->populations.front() > 24) {
      candidates.push_back(with(c, "n0", "24"));
    }
    if (plan->batch_sizes.front() > 1) {
      candidates.push_back(with(c, "batch-size", "1"));
    }
    if (s.serve.enabled && (s.serve.clients > 2 || s.serve.queue_depth > 4)) {
      candidates.push_back(with(with(c, "clients", "2"), "queue-depth", "4"));
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

void report_violation(const Args& found, const Violation& v,
                      const CheckOptions& opt, std::ofstream* repro_out) {
  const std::string shrunk = to_line(shrink_case(found, v.invariant, opt));
  std::printf("VIOLATION invariant=%s detail=%s\n", v.invariant.c_str(),
              v.detail.c_str());
  std::printf("found:  %s\n", to_line(found).c_str());
  std::printf("shrunk: %s\n", shrunk.c_str());
  std::printf("replay: scenario_fuzzer --case \"%s\"\n", shrunk.c_str());
  std::printf("cli:    dex_sim_cli %s\n", shrunk.c_str());
  if (repro_out) *repro_out << shrunk << '\n' << std::flush;
}

int usage(std::FILE* os, int code) {
  std::fprintf(
      os,
      "usage: scenario_fuzzer [--seed S] [--budget N] [--replay FILE]\n"
      "                       [--case \"LINE\"] [--inject-bug conservation]\n"
      "                       [--repro-out FILE]\n"
      "\n"
      "Generates N random campaign scenarios from seed S, runs each under\n"
      "the sync and event regimes and checks determinism, op\n"
      "conservation, acked-key durability, structural invariants and the\n"
      "overlay's own audit (check_invariants) after every run.\n"
      "Prints `ok <case>` per clean case (a corpus source); on the first\n"
      "violation shrinks to a one-line repro and exits 1.\n"
      "\n"
      "A case line is a dex_sim_cli argument line for one traced trial,\n"
      "e.g. --seed=7 --backend=lawsiu --n0=32 --steps=8 --campaign='churn:0-'\n"
      "(values with shell metacharacters in single quotes).\n"
      "\n"
      "  --replay FILE   re-check the case lines in FILE (the seed corpus)\n"
      "  --case \"LINE\"   re-check one case line\n"
      "                  (every line is parsed by dex_sim_cli's parser before\n"
      "                  any case runs; a bad line, or one with --sweep,\n"
      "                  --jobs, --no-trace, --csv or --json, exits 2 with\n"
      "                  `line N: <message>`)\n"
      "  --inject-bug conservation\n"
      "                  break the conservation check's observed count by\n"
      "                  one (self-test: the fuzzer must find + shrink it)\n"
      "  --repro-out F   also write the shrunk repro line to F (opened\n"
      "                  before the first case; exits 2 if it cannot be)\n");
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
    auto number = [&]() -> std::uint64_t {
      const char* v = value();
      try {
        return parse_u64(v);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(), e.what());
        std::exit(2);
      }
    };
    if (arg == "--seed") {
      seed = number();
    } else if (arg == "--budget") {
      budget = number();
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

  // Opened before the first case runs, so a bad path costs no fuzzing and
  // a violation's repro cannot go missing unnoticed.
  std::ofstream repro_file;
  if (repro_out) {
    repro_file.open(repro_out);
    if (!repro_file) {
      std::fprintf(stderr, "cannot open '%s'\n", repro_out);
      return 2;
    }
  }
  std::ofstream* repro = repro_out ? &repro_file : nullptr;

  // Replay modes: corpus file or a single case line.
  if (!replay_path.empty() || !case_line.empty()) {
    // Each case line with its line number in the file (--case is line 1),
    // so a message points at the line to edit.
    std::vector<std::pair<std::size_t, std::string>> lines;
    if (!case_line.empty()) lines.emplace_back(1, case_line);
    if (!replay_path.empty()) {
      std::ifstream in(replay_path);
      if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", replay_path.c_str());
        return 2;
      }
      std::string line;
      for (std::size_t number = 1; std::getline(in, line); ++number) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty() || line[0] == '#') continue;
        if (line.rfind("ok ", 0) == 0) line = line.substr(3);
        lines.emplace_back(number, line);
      }
    }
    // Every line is split, parsed and gated before the first case runs, so
    // a bad line costs no simulation and prints nothing on stdout.
    std::vector<Args> cases;
    for (const auto& [number, line] : lines) {
      std::string error;
      auto args = split_line(line, &error);
      if (args && !case_plan(*args, &error)) args.reset();
      if (!args) {
        std::fprintf(stderr, "line %zu: %s\n", number, error.c_str());
        return 2;
      }
      cases.push_back(std::move(*args));
    }
    CheckOptions replay_opt = opt;
    replay_opt.sweep_probe = true;  // corpus is small; probe every case
    for (const auto& c : cases) {
      if (const auto v = check_case(c, replay_opt)) {
        report_violation(c, *v, replay_opt, repro);
        return 1;
      }
      std::printf("ok %s\n", to_line(c).c_str());
    }
    std::fprintf(stderr, "replayed %zu case(s), all clean\n", lines.size());
    return 0;
  }

  for (std::size_t i = 0; i < budget; ++i) {
    const Args c = random_case(seed, i);
    CheckOptions case_opt = opt;
    case_opt.sweep_probe = (i % 4) == 3;  // the Executor probe is ~6x a run
    std::fprintf(stderr, "[%zu/%zu] %s\n", i + 1, budget,
                 to_line(c).c_str());
    if (const auto v = check_case(c, case_opt)) {
      report_violation(c, *v, case_opt, repro);
      return 1;
    }
    std::printf("ok %s\n", to_line(c).c_str());
  }
  std::fprintf(stderr, "%zu case(s), all invariants held\n", budget);
  return 0;
}
