#pragma once

/// \file run_args.h
/// dex_sim_cli's argument language as one library function, so every
/// front-end that takes a run as flags reads them the same way: dex_sim_cli
/// parses its argv with it, and scenario_fuzzer parses its case lines (a
/// fuzz case is a dex_sim_cli argument line) with it too.
///
/// parse_run_args reads `--flag=VALUE` and `--flag VALUE` alike, then gates
/// the combination before anything runs: comma lists need --sweep, --jobs
/// needs --sweep, --campaign excludes --scenario, and traffic, event and
/// serve knobs need their mode; ExperimentPlan::validate checks the plan's
/// contents last. Every refusal is one line.

#include <cstddef>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace dex::sim {

/// The knobs that mean nothing outside their mode, by flag name without the
/// leading `--`. parse_run_args refuses any of them given without the flag
/// that turns the mode on: --workload, --engine event and --serve.
inline const std::vector<std::string> kTrafficKnobs = {"ops-per-step", "keys",
                                                       "zipf", "read-frac"};
inline const std::vector<std::string> kEventKnobs = {
    "latency", "loss", "stragglers", "straggler-factor", "period"};
inline const std::vector<std::string> kServeKnobs = {
    "clients", "think", "queue-depth", "service", "op-timeout"};

/// A parsed dex_sim_cli argument list: the plan it runs plus the settings
/// for where its output goes. The plan is ready to expand(): labelled, with
/// the per-step degree scan on exactly when the trace is emitted, and a
/// customize hook that folds --insert-prob into churn/burst labels.
struct RunArgs {
  ExperimentPlan plan;
  bool sweep = false;     ///< --sweep: comma lists expand to a grid
  bool trace = true;      ///< false under --no-trace
  std::size_t jobs = 1;   ///< --jobs: sweep worker threads (0 = all cores)
  std::string csv_path;   ///< --csv; empty = stdout
  std::string json_path;  ///< --json; empty = stderr
  /// --help/-h was given (parsing stops there), or `error` names an
  /// unknown flag: print the usage text.
  bool help = false;
  /// Non-empty: the one-line reason the arguments were refused; nothing
  /// else in the struct is meaningful then.
  std::string error;
};

/// Parses and gates dex_sim_cli's arguments (argv without the program
/// name). Never throws on bad input; see RunArgs::error.
[[nodiscard]] RunArgs parse_run_args(const std::vector<std::string>& args);

}  // namespace dex::sim
