#include "sim/scenario.h"

#include <algorithm>
#include <utility>

#include "metrics/emit.h"
#include "support/assert.h"

namespace dex::sim {

// --------------------------------------------------------- ScenarioRunner

ResolvedBounds resolve_bounds(const ScenarioSpec& spec, std::size_t n0) {
  ResolvedBounds b;
  b.min_n = spec.min_n ? spec.min_n : std::max<std::size_t>(n0 / 2, 4);
  b.max_n = spec.max_n ? spec.max_n : 2 * n0;
  return b;
}

ScenarioRunner::ScenarioRunner(HealingOverlay& overlay,
                               adversary::Strategy& strategy,
                               ScenarioSpec spec)
    : overlay_(overlay), strategy_(strategy), spec_(spec) {}

// ScenarioRunner::run() is the discrete-event loop in sim/event/engine.cpp.

// ------------------------------------------------------- strategy factory

std::unique_ptr<adversary::Strategy> make_strategy(
    const std::string& scenario, const StrategyOptions& opts) {
  using namespace adversary;
  if (scenario == "churn")
    return std::make_unique<RandomChurn>(opts.insert_prob);
  if (scenario == "insert-only") return std::make_unique<InsertOnly>();
  if (scenario == "delete-only") return std::make_unique<DeleteOnly>();
  if (scenario == "oscillate")
    return std::make_unique<Oscillate>(opts.half_period);
  if (scenario == "targeted") return std::make_unique<CoordinatorKiller>();
  if (scenario == "load-attack") return std::make_unique<LoadAttack>();
  if (scenario == "spectral") return std::make_unique<SpectralAttack>();
  if (scenario == "greedy-spectral")
    return std::make_unique<GreedySpectralDeletion>(opts.candidates);
  if (scenario == "burst")
    return std::make_unique<BurstChurn>(opts.insert_prob);
  if (scenario == "flash-crowd") return std::make_unique<FlashCrowd>();
  if (scenario == "mass-failure")
    return std::make_unique<CorrelatedFailure>();
  if (scenario == "oracle-bust") return std::make_unique<OracleBuster>();
  if (scenario == "chord-cut") return std::make_unique<ChordAttack>();
  if (scenario == "spectral-batch") return std::make_unique<SpectralBatch>();
  return nullptr;
}

const std::vector<std::string>& known_strategies() {
  static const std::vector<std::string> names{
      "churn",
      "insert-only",
      "delete-only",
      "oscillate",
      "targeted",
      "load-attack",
      "spectral",
      "greedy-spectral",
      "burst",
      "flash-crowd",
      "mass-failure",
      "oracle-bust",
      "chord-cut",
      "spectral-batch",
  };
  return names;
}

std::optional<adversary::CampaignSpec> parse_campaign_spec(
    const std::string& text, std::string* error) {
  std::string err;
  auto spec = adversary::parse_campaign(text, known_strategies(), err);
  if (!spec && error != nullptr) *error = err;
  return spec;
}

std::unique_ptr<adversary::Strategy> make_campaign_strategy(
    adversary::CampaignSpec campaign, const StrategyOptions& opts) {
  return std::make_unique<adversary::CampaignStrategy>(
      std::move(campaign), [opts](const std::string& name) {
        return make_strategy(name, opts);
      });
}

const char* strategy_names() {
  // Joined from the registry so the usage string can never drift from what
  // make_strategy actually accepts.
  static const std::string joined = [] {
    std::string s;
    for (const auto& name : known_strategies()) {
      if (!s.empty()) s += ", ";
      s += name;
    }
    return s;
  }();
  return joined.c_str();
}

// --------------------------------------------------------------- emission

const std::vector<std::string>& trace_csv_header() {
  static const std::vector<std::string> header{
      "step",
      "op",
      "target",
      "new_node",
      "n",
      "rounds",
      "messages",
      "topology_changes",
      "batch_inserts",
      "batch_deletes",
      "walk_epochs",
      "used_type2",
      "max_degree",
      "gap",
      "ops",
      "op_hops",
      "opt_hops",
      "failed_lookups",
      "failed_writes",
      "stretch",
      "moved_keys",
      "rehash_messages",
      "vtime",
      "in_flight",
      "dropped",
      "shed",
      "timeouts",
      "qdepth",
  };
  return header;
}

std::vector<std::string> trace_csv_cells(const StepRecord& r) {
  const bool single = r.batch_inserts + r.batch_deletes == 1;
  return {std::to_string(r.step),
          single ? (r.insert ? "insert" : "delete") : "batch",
          r.target == graph::kInvalidNode ? std::string()
                                          : std::to_string(r.target),
          r.new_node == graph::kInvalidNode ? std::string()
                                            : std::to_string(r.new_node),
          std::to_string(r.n),
          std::to_string(r.cost.rounds),
          std::to_string(r.cost.messages),
          std::to_string(r.cost.topology_changes),
          std::to_string(r.batch_inserts),
          std::to_string(r.batch_deletes),
          std::to_string(r.walk_epochs),
          r.used_type2 ? "1" : "0",
          std::to_string(r.max_degree),
          r.gap < 0 ? std::string() : metrics::format_double(r.gap),
          std::to_string(r.ops),
          std::to_string(r.op_hops),
          std::to_string(r.opt_hops),
          std::to_string(r.failed_lookups),
          std::to_string(r.failed_writes),
          r.opt_hops == 0 ? std::string()
                          : metrics::format_double(
                                static_cast<double>(r.op_hops) /
                                static_cast<double>(r.opt_hops)),
          std::to_string(r.moved_keys),
          std::to_string(r.rehash_messages),
          std::to_string(r.vtime),
          std::to_string(r.in_flight),
          std::to_string(r.dropped),
          std::to_string(r.shed),
          std::to_string(r.timeouts),
          std::to_string(r.queue_peak)};
}

std::string trace_csv(const ScenarioResult& result) {
  metrics::CsvWriter csv(trace_csv_header());
  for (const auto& r : result.trace) csv.add_row(trace_csv_cells(r));
  return csv.to_string();
}

namespace {

metrics::JsonObject summary_obj(const metrics::Summary& s) {
  metrics::JsonObject o;
  o.add("mean", s.mean)
      .add("p50", s.p50)
      .add("p95", s.p95)
      .add("p99", s.p99)
      .add("max", s.max);
  return o;
}

}  // namespace

std::string summary_json(const ScenarioResult& result) {
  const auto bounds = resolve_bounds(result.spec, result.start_n);
  metrics::JsonObject o;
  o.add("backend", result.backend);
  if (!result.spec.label.empty()) o.add("scenario", result.spec.label);
  if (result.spec.campaign) o.add("campaign", result.spec.campaign->source);
  o.add("seed", result.spec.seed)
      .add("steps", static_cast<std::uint64_t>(result.rounds.count))
      .add("batch_size", static_cast<std::uint64_t>(result.spec.batch_size))
      .add("start_n", static_cast<std::uint64_t>(result.start_n))
      .add("min_n", static_cast<std::uint64_t>(bounds.min_n))
      .add("max_n", static_cast<std::uint64_t>(bounds.max_n))
      .add("warmup_steps",
           static_cast<std::uint64_t>(result.spec.warmup_steps));
  if (result.spec.burst_every > 0)
    o.add("burst_every", static_cast<std::uint64_t>(result.spec.burst_every));
  o.add("batch_inserts_total",
        static_cast<std::uint64_t>(result.total_inserts))
      .add("batch_deletes_total",
           static_cast<std::uint64_t>(result.total_deletes))
      .add("total_walk_epochs", result.total_walk_epochs)
      .add("type2_steps", static_cast<std::uint64_t>(result.type2_steps))
      .add("parallel_steps",
           static_cast<std::uint64_t>(result.parallel_steps));
  if (result.spec.warmup_steps > 0)
    o.add("warmup_insert_prob", result.spec.warmup_insert_prob);
  if (result.spec.gap_every > 0)
    o.add("gap_every", static_cast<std::uint64_t>(result.spec.gap_every));
  o.add("final_n", static_cast<std::uint64_t>(result.final_n))
      .add("total_rounds", result.total.rounds)
      .add("total_messages", result.total.messages)
      .add("total_topology_changes", result.total.topology_changes)
      .add("rounds", summary_obj(result.rounds))
      .add("messages", summary_obj(result.messages))
      .add("topology_changes", summary_obj(result.topology));
  if (result.spec.measure_degree)
    o.add("max_degree", static_cast<std::uint64_t>(result.max_degree));
  if (result.spec.gap_every > 0) o.add("min_gap", result.min_gap);
  if (result.spec.traffic.enabled()) {
    const auto& t = result.spec.traffic;
    o.add("workload", t.workload)
        .add("ops_per_step", static_cast<std::uint64_t>(t.ops_per_step))
        .add("keyspace", static_cast<std::uint64_t>(t.keyspace))
        .add("read_fraction", t.read_fraction);
    if (t.workload != "uniform") o.add("zipf_s", t.zipf_s);
    o.add("total_ops", static_cast<std::uint64_t>(result.total_ops))
        .add("total_op_hops", result.total_op_hops)
        .add("total_opt_hops", result.total_opt_hops);
    // Same guard as the per-row CSV stretch cell: no routed op, no ratio —
    // the field is omitted rather than defaulted to a fictitious 1.0.
    if (result.total_opt_hops != 0) {
      o.add("mean_stretch", static_cast<double>(result.total_op_hops) /
                                static_cast<double>(result.total_opt_hops));
    }
    o.add("failed_lookups",
          static_cast<std::uint64_t>(result.total_failed_lookups))
        .add("failed_writes",
             static_cast<std::uint64_t>(result.total_failed_writes))
        .add("moved_keys", static_cast<std::uint64_t>(result.total_moved_keys))
        .add("rehash_messages", result.total_rehash_messages);
  }
  if (result.spec.event.enabled) {
    // The delivery regime, archived next to its outcomes; absent entirely
    // on sync-engine summaries so their bytes stay what they always were.
    const auto& e = result.spec.event;
    o.add("engine", std::string("event"))
        .add("latency", e.latency.to_string())
        .add("loss_rate", e.loss_rate)
        .add("straggler_fraction", e.straggler_fraction)
        .add("straggler_factor", e.straggler_factor)
        .add("period", e.period)
        .add("dropped_deliveries", result.total_dropped)
        .add("max_in_flight",
             static_cast<std::uint64_t>(result.max_in_flight));
  }
  if (result.spec.serve.enabled) {
    // The serving regime and its outcomes.
    const auto& sv = result.spec.serve;
    const auto& lat = result.serve_latency;
    metrics::JsonObject s;
    s.add("clients", static_cast<std::uint64_t>(sv.clients))
        .add("think_ticks", sv.think_ticks)
        .add("queue_depth", static_cast<std::uint64_t>(sv.queue_depth))
        .add("service_ticks", sv.service_ticks)
        .add("op_timeout", sv.op_timeout)
        .add("completed", static_cast<std::uint64_t>(result.serve_completed))
        .add("shed", static_cast<std::uint64_t>(result.serve_shed))
        .add("timeouts", static_cast<std::uint64_t>(result.serve_timeouts))
        .add("peak_queue",
             static_cast<std::uint64_t>(result.serve_peak_queue))
        .add("makespan", result.serve_makespan);
    if (result.serve_makespan > 0) {
      s.add("throughput", static_cast<double>(result.serve_completed) /
                              static_cast<double>(result.serve_makespan));
    }
    metrics::JsonObject l;
    l.add("mean", lat.mean())
        .add("p50", lat.quantile(0.50))
        .add("p99", lat.quantile(0.99))
        .add("p999", lat.quantile(0.999))
        .add("max", lat.max());
    s.add("latency", l);
    o.add("serve", s);
  }
  return o.to_string();
}

}  // namespace dex::sim
