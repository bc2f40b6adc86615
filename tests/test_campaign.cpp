// Campaign language tests: the compact-string parser (actionable rejection
// messages, ranges, options, mix weights, replay traces), the schedule
// queries (phase_at / load_at / scaled_ops / total_ops), and the summary
// archiving of the campaign string.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "adversary/campaign.h"
#include "sim/experiment.h"
#include "sim/overlay.h"
#include "sim/scenario.h"

namespace dex {
namespace {

using adversary::CampaignSpec;
using adversary::kOpenEnd;

std::vector<std::string> known() { return sim::known_strategies(); }

std::string parse_error(const std::string& text) {
  std::string error;
  const auto spec = adversary::parse_campaign(text, known(), error);
  EXPECT_FALSE(spec.has_value()) << "spec unexpectedly parsed: " << text;
  EXPECT_FALSE(error.empty()) << "rejection must carry a message: " << text;
  return error;
}

CampaignSpec parse_ok(const std::string& text) {
  std::string error;
  const auto spec = adversary::parse_campaign(text, known(), error);
  EXPECT_TRUE(spec.has_value()) << text << " -> " << error;
  return spec.value_or(CampaignSpec{});
}

TEST(CampaignParse, RejectsMalformedSpecsWithActionableMessages) {
  const struct {
    const char* text;
    const char* expect;  // substring the one-line message must carry
  } kCases[] = {
      {"", "empty campaign spec"},
      {"churn:0-50;;burst:60-", "stray ';'"},
      {"bogus:0-10", "unknown strategy 'bogus'"},
      {"mix(churn*2:0-10", "missing ')'"},
      {"mix():0-10", "bad mix part"},
      {"mix(churn*x):0-10", "bad mix part"},
      {"mix(churn)x:0-10", "trailing junk"},
      {"replay():0-10", "needs a file path"},
      {"replay(/nonexistent/trace.csv):0-10", "trace"},
      {"churn:10-5", "bad range"},
      {"churn:-5", "bad range"},
      {"churn:0-;burst", "open-ended"},
      {"churn;burst", "open-ended"},
      {"churn:0-10,rate=1.5", "rate must be"},
      {"churn:0-10,rate=abc", "rate must be"},
      {"churn:0-10,load=-1", "load must be"},
      {"churn:0-10,diurnal=1", "diurnal must be"},
      {"churn:0-10,bogus=2", "unknown option"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.text);
    const std::string error = parse_error(c.text);
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "message was: " << error;
  }
}

TEST(CampaignParse, ErrorsNameTheOffendingPhase) {
  const std::string error = parse_error("churn:0-10;bogus:10-20");
  EXPECT_NE(error.find("phase 2"), std::string::npos) << error;
}

TEST(CampaignParse, UnknownStrategyListsTheValidNames) {
  const std::string error = parse_error("bogus:0-10");
  // The message must be self-serving: every registry name is in it.
  for (const auto& name : known()) {
    EXPECT_NE(error.find(name), std::string::npos)
        << "missing '" << name << "' in: " << error;
  }
}

TEST(CampaignParse, ParsesPhasesRangesAndOptions) {
  const auto spec =
      parse_ok("flash-crowd:0-50;mass-failure:50-60,rate=0.3;burst:60-");
  ASSERT_EQ(spec.phases.size(), 3u);
  EXPECT_EQ(spec.source, "flash-crowd:0-50;mass-failure:50-60,rate=0.3;burst:60-");
  EXPECT_EQ(spec.phases[0].strategy, "flash-crowd");
  EXPECT_EQ(spec.phases[0].begin, 0u);
  EXPECT_EQ(spec.phases[0].end, 50u);
  EXPECT_DOUBLE_EQ(spec.phases[0].rate, 1.0);
  EXPECT_EQ(spec.phases[1].strategy, "mass-failure");
  EXPECT_DOUBLE_EQ(spec.phases[1].rate, 0.3);
  EXPECT_EQ(spec.phases[2].end, kOpenEnd);
  EXPECT_EQ(spec.phase_index_at(49), 0u);
  EXPECT_EQ(spec.phase_index_at(50), 1u);
  EXPECT_EQ(spec.phase_index_at(59), 1u);
  EXPECT_EQ(spec.phase_index_at(60), 2u);
  EXPECT_EQ(spec.phase_index_at(1u << 20), 2u);  // open end runs forever
}

TEST(CampaignParse, OmittedRangeChainsFromPreviousPhase) {
  const auto spec = parse_ok("churn:0-10;burst");
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_EQ(spec.phases[1].begin, 10u);
  EXPECT_EQ(spec.phases[1].end, kOpenEnd);
  // A bare name is a whole campaign too.
  const auto solo = parse_ok("churn");
  ASSERT_EQ(solo.phases.size(), 1u);
  EXPECT_EQ(solo.phases[0].begin, 0u);
  EXPECT_EQ(solo.phases[0].end, kOpenEnd);
}

TEST(CampaignParse, MixParsesWeightsAndDefaults) {
  const auto spec = parse_ok("mix(churn*3+spectral):0-10");
  ASSERT_EQ(spec.phases.size(), 1u);
  ASSERT_TRUE(spec.phases[0].is_mix());
  ASSERT_EQ(spec.phases[0].mix.size(), 2u);
  EXPECT_EQ(spec.phases[0].mix[0].strategy, "churn");
  EXPECT_DOUBLE_EQ(spec.phases[0].mix[0].weight, 3.0);
  EXPECT_EQ(spec.phases[0].mix[1].strategy, "spectral");
  EXPECT_DOUBLE_EQ(spec.phases[0].mix[1].weight, 1.0);
}

TEST(CampaignSchedule, QuietGapsCarryNoChurnAndUnitLoad) {
  const auto spec = parse_ok("churn:0-4,load=2;burst:6-8");
  EXPECT_EQ(spec.phase_index_at(4), CampaignSpec::kNoPhase);
  EXPECT_EQ(spec.phase_index_at(5), CampaignSpec::kNoPhase);
  EXPECT_EQ(spec.phase_index_at(8), CampaignSpec::kNoPhase);
  EXPECT_DOUBLE_EQ(spec.load_at(0), 2.0);
  EXPECT_DOUBLE_EQ(spec.load_at(4), 1.0);
  EXPECT_EQ(spec.scaled_ops(10, 0), 20u);
  EXPECT_EQ(spec.scaled_ops(10, 4), 10u);
  // 4 steps at 20, then 4 quiet/flat steps at 10.
  EXPECT_EQ(spec.total_ops(10, 8), 120u);
}

TEST(CampaignSchedule, DiurnalTriangleRampsToPeakAndBack) {
  const auto spec = parse_ok("churn:0-,load=3,diurnal=4");
  EXPECT_DOUBLE_EQ(spec.load_at(0), 1.0);  // trough at phase start
  EXPECT_DOUBLE_EQ(spec.load_at(1), 2.0);  // halfway up
  EXPECT_DOUBLE_EQ(spec.load_at(2), 3.0);  // peak at half period
  EXPECT_DOUBLE_EQ(spec.load_at(3), 2.0);  // halfway down
  EXPECT_DOUBLE_EQ(spec.load_at(4), 1.0);  // periodic
  EXPECT_EQ(spec.total_ops(10, 4), 10u + 20u + 30u + 20u);
}

TEST(CampaignParse, ReplayLoadsBareAndScenarioTraceFormats) {
  const std::string bare = ::testing::TempDir() + "/campaign_bare_trace.csv";
  {
    std::ofstream out(bare);
    out << "# recorded by hand\n"
        << "insert,5\n"
        << "\n"
        << "delete,3\n";
  }
  const auto spec = parse_ok("replay(" + bare + "):0-4");
  ASSERT_EQ(spec.phases.size(), 1u);
  ASSERT_TRUE(spec.phases[0].is_replay());
  ASSERT_EQ(spec.phases[0].script.size(), 2u);
  EXPECT_TRUE(spec.phases[0].script[0].insert);
  EXPECT_EQ(spec.phases[0].script[0].target, 5u);
  EXPECT_FALSE(spec.phases[0].script[1].insert);
  EXPECT_EQ(spec.phases[0].script[1].target, 3u);

  // The ScenarioRunner's own trace format replays as-is: op/target columns
  // are located by header, batch rows are skipped.
  const std::string trace = ::testing::TempDir() + "/campaign_runner_trace.csv";
  {
    std::ofstream out(trace);
    out << "step,op,target,new_node,n\n"
        << "0,insert,7,9,10\n"
        << "1,batch,,,12\n"
        << "2,delete,4,,11\n";
  }
  const auto spec2 = parse_ok("replay(" + trace + "):0-4");
  ASSERT_EQ(spec2.phases[0].script.size(), 2u);
  EXPECT_TRUE(spec2.phases[0].script[0].insert);
  EXPECT_EQ(spec2.phases[0].script[0].target, 7u);
  EXPECT_FALSE(spec2.phases[0].script[1].insert);
  EXPECT_EQ(spec2.phases[0].script[1].target, 4u);
  std::remove(bare.c_str());
  std::remove(trace.c_str());
}

TEST(CampaignRun, SummaryArchivesTheCampaignString) {
  const auto campaign = sim::parse_campaign_spec("churn:0-2;burst:2-");
  ASSERT_TRUE(campaign.has_value());
  auto overlay = sim::make_overlay("flood", 16, sim::overlay_seed(3));
  auto strategy = sim::make_campaign_strategy(*campaign);
  sim::ScenarioSpec spec;
  spec.seed = 3;
  spec.steps = 4;
  spec.batch_size = 2;
  spec.campaign = campaign;
  sim::ScenarioRunner runner(*overlay, *strategy, spec);
  const auto result = runner.run();
  const auto json = sim::summary_json(result);
  EXPECT_NE(json.find("\"campaign\": \"churn:0-2;burst:2-\""),
            std::string::npos)
      << json;
}

TEST(CampaignRun, ParseCampaignSpecWrapsTheRegistry) {
  std::string error;
  EXPECT_TRUE(sim::parse_campaign_spec("churn:0-8;spectral-batch:8-", &error)
                  .has_value())
      << error;
  EXPECT_FALSE(sim::parse_campaign_spec("nope:0-8", &error).has_value());
  EXPECT_NE(error.find("unknown strategy"), std::string::npos);
}

}  // namespace
}  // namespace dex
