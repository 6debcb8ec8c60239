// FaultPlan DSL tests: parse -> print -> parse identity over the whole
// event space, and rejection of malformed plans with line-accurate
// messages. The identity property is what makes saved drill plans (CI
// fixtures, operator runbooks) stable artifacts.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fault/backoff.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"

namespace iofa::fault {
namespace {

FaultPlan full_plan() {
  FaultPlan plan;
  plan.seed = 1337;
  plan.crash_ion(1, 0.25)
      .restart_ion(1, 0.75)
      .crash_ion_after(2, 40)
      .stall(kPfsReadSite, 0.1, 0.05)
      .stall(kPfsReadSite, 0.3, 0.025)
      .error_after(kPfsWriteSite, 3)
      .error_prob(request_site(0), 0.125)
      .drop_mapping(0.5)
      .corrupt_mapping(0.9);
  return plan;
}

std::string parse_error(const std::string& text) {
  std::string error;
  const auto plan = FaultPlan::parse(text, &error);
  EXPECT_FALSE(plan.has_value()) << text;
  EXPECT_FALSE(error.empty()) << text;
  return error;
}

TEST(FaultPlanDsl, BuilderPlanSurvivesPrintParseRoundTrip) {
  const FaultPlan plan = full_plan();
  ASSERT_EQ(plan.validate(), std::nullopt);

  std::string error;
  const auto reparsed = FaultPlan::parse(plan.to_string(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, plan);
  // And the printed form is a fixed point, not merely equivalent.
  EXPECT_EQ(reparsed->to_string(), plan.to_string());
}

TEST(FaultPlanDsl, TextSurvivesParsePrintParseRoundTrip) {
  const std::string text =
      "# drill: lose ion 1, flaky pfs\n"
      "seed 42\n"
      "\n"
      "at 0.2 crash ion.1\n"
      "at 0.8 restart ion.1\n"
      "at 0.1 stall pfs.read 0.05\n"
      "after 5 error ion.0.request\n"
      "prob 0.25 error pfs.write\n"
      "at 0.5 drop mapping.publish\n"
      "at 0.6 corrupt mapping.publish\n";
  std::string error;
  const auto plan = FaultPlan::parse(text, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->events.size(), 7u);

  const auto again = FaultPlan::parse(plan->to_string(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(*again, *plan);
}

TEST(FaultPlanDsl, FractionalValuesRoundTripExactly) {
  // Values with no short decimal representation must still come back
  // bit-identical through the printer.
  FaultPlan plan;
  plan.seed = 7;
  plan.crash_ion(3, 1.0 / 3.0).stall(kPfsWriteSite, 0.7, 1e-4);
  plan.error_prob(kPfsWriteSite, 0.1 + 0.2);  // 0.30000000000000004

  std::string error;
  const auto reparsed = FaultPlan::parse(plan.to_string(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, plan);
}

TEST(FaultPlanDsl, EmptyAndCommentOnlyTextParsesToEmptyPlan) {
  std::string error;
  const auto plan = FaultPlan::parse("# nothing scheduled\n\n  \n", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_TRUE(plan->empty());
  EXPECT_EQ(plan->seed, 0u);
}

TEST(FaultPlanDsl, RejectsBadSiteName) {
  EXPECT_NE(parse_error("at 0.5 crash ion.x\n").find("bad site name"),
            std::string::npos);
  EXPECT_NE(parse_error("prob 0.5 error pfs.delete\n").find("bad site name"),
            std::string::npos);
  EXPECT_NE(
      parse_error("at 1 stall ion.2.response 0.1\n").find("bad site name"),
      std::string::npos);
}

TEST(FaultPlanDsl, RejectsNegativeTime) {
  EXPECT_NE(parse_error("at -0.5 crash ion.0\n").find("negative time"),
            std::string::npos);
}

TEST(FaultPlanDsl, RejectsOverlappingStallWindows) {
  const std::string text =
      "at 0.1 stall pfs.write 0.2\n"
      "at 0.2 stall pfs.write 0.1\n";
  EXPECT_NE(parse_error(text).find("overlapping stall windows"),
            std::string::npos);
  // Adjacent windows (end == start) are fine; use values that are
  // exact in binary so end really equals start (0.1 + 0.2 != 0.3).
  std::string error;
  EXPECT_TRUE(FaultPlan::parse("at 0.125 stall pfs.write 0.125\n"
                               "at 0.25 stall pfs.write 0.125\n",
                               &error)
                  .has_value())
      << error;
}

TEST(FaultPlanDsl, RejectsOutOfOrderAtEventsPerSite) {
  const std::string text =
      "at 0.8 crash ion.1\n"
      "at 0.2 restart ion.1\n";
  EXPECT_NE(parse_error(text).find("chronologically"), std::string::npos);
  // Different sites are independent timelines.
  std::string error;
  EXPECT_TRUE(FaultPlan::parse("at 0.8 crash ion.1\nat 0.2 crash ion.2\n",
                               &error)
                  .has_value())
      << error;
}

TEST(FaultPlanDsl, RejectsBadVerbAndTrailingTokens) {
  EXPECT_NE(parse_error("at 0.5 explode ion.0\n").find("unknown event"),
            std::string::npos);
  EXPECT_NE(parse_error("flaky 0.5 error pfs.write\n")
                .find("unknown directive"),
            std::string::npos);
  EXPECT_NE(parse_error("at 0.5 crash ion.0 extra\n")
                .find("trailing tokens"),
            std::string::npos);
  EXPECT_NE(parse_error("seed -3\n").find("unsigned integer"),
            std::string::npos);
}

TEST(FaultPlanDsl, RejectsBadTriggerKindCombinations) {
  // crash is at/after only; restart/stall/drop/corrupt are at-only;
  // error is after/prob only.
  EXPECT_FALSE(FaultPlan::parse("prob 0.5 crash ion.0\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("after 3 restart ion.0\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("prob 0.5 stall pfs.write 0.1\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("at 0.5 error pfs.write\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("after 2 drop mapping.publish\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("prob 0.1 corrupt mapping.publish\n").has_value());
}

TEST(FaultPlanDsl, RejectsBadKindSiteCombinations) {
  // crash/restart want a lifecycle site, not a request or pfs site.
  EXPECT_FALSE(FaultPlan::parse("at 0.5 crash ion.0.request\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("at 0.5 crash pfs.write\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("at 0.5 restart pfs.read\n").has_value());
  // mapping.publish is drop/corrupt territory.
  EXPECT_FALSE(
      FaultPlan::parse("prob 0.5 error mapping.publish\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("at 0.5 stall mapping.publish 0.1\n").has_value());
  // reads are stall-only; drops/corrupts apply only to the mapping.
  EXPECT_FALSE(FaultPlan::parse("prob 0.5 error pfs.read\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("at 0.5 drop pfs.write\n").has_value());
}

TEST(FaultPlanDsl, RejectsBadValueRanges) {
  EXPECT_FALSE(FaultPlan::parse("prob 0 error pfs.write\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("prob 1.5 error pfs.write\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("after 0 error pfs.write\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("at 0.5 stall pfs.write 0\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("at 0.5 stall pfs.write -0.1\n").has_value());
}

TEST(FaultPlanDsl, ErrorsReportTheOffendingLine) {
  const std::string text =
      "seed 1\n"
      "at 0.5 crash ion.0\n"
      "at 0.6 crash ion.nope\n";
  EXPECT_NE(parse_error(text).find("bad site name"), std::string::npos);

  EXPECT_NE(parse_error("seed 1\nat x crash ion.0\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("after x error pfs.write\n").find("bad count"),
            std::string::npos);
  EXPECT_NE(parse_error("prob x error pfs.write\n").find("bad probability"),
            std::string::npos);
  EXPECT_NE(parse_error("at 0.5 stall pfs.write\n").find("duration"),
            std::string::npos);
}

TEST(FaultPlanDsl, SiteHelpers) {
  EXPECT_EQ(ion_site(3), "ion.3");
  EXPECT_EQ(request_site(3), "ion.3.request");
  EXPECT_TRUE(site_is_valid("ion.0"));
  EXPECT_TRUE(site_is_valid("ion.12.request"));
  EXPECT_TRUE(site_is_valid(kPfsWriteSite));
  EXPECT_TRUE(site_is_valid(kPfsReadSite));
  EXPECT_TRUE(site_is_valid(kMappingPublishSite));
  EXPECT_FALSE(site_is_valid("ion."));
  EXPECT_FALSE(site_is_valid("ion.-1"));
  EXPECT_FALSE(site_is_valid("ion.1.reply"));
  EXPECT_FALSE(site_is_valid("pfs"));
  EXPECT_EQ(ion_of_site("ion.7"), 7);
  EXPECT_EQ(ion_of_site("ion.7.request"), 7);
  EXPECT_EQ(ion_of_site("pfs.write"), std::nullopt);
}

TEST(FaultPlanDsl, ShardSiteHelpers) {
  EXPECT_EQ(shard_site(3, 1), "ion.3.shard.1");
  EXPECT_TRUE(site_is_valid("ion.3.shard.1"));
  EXPECT_TRUE(site_is_valid("ion.0.shard.0"));
  EXPECT_FALSE(site_is_valid("ion.3.shard."));
  EXPECT_FALSE(site_is_valid("ion.3.shard.-1"));
  EXPECT_FALSE(site_is_valid("ion.3.shard.x"));
  EXPECT_FALSE(site_is_valid("ion.3.shard.1.extra"));
  EXPECT_EQ(ion_of_site("ion.3.shard.1"), 3);
  EXPECT_EQ(ion_of_site("ion.3.shard.x"), std::nullopt);
  EXPECT_EQ(shard_site_parent("ion.3.shard.1"), "ion.3.request");
  EXPECT_EQ(shard_site_parent("ion.3.request"), std::nullopt);
  EXPECT_EQ(shard_site_parent("ion.3"), std::nullopt);
  EXPECT_EQ(shard_site_parent("pfs.write"), std::nullopt);
}

// targets() answers "could decide() fire here" from the plan alone, as
// decide() matches sites, and counts no check.
TEST(FaultInjectorTargets, OwnSiteAndShardParentOnly) {
  ManualFaultClock clock;
  FaultPlan plan;
  plan.crash_ion(1, 0.25).stall(request_site(2), 0.0, 0.01);
  const FaultInjector injector(std::move(plan), &clock);
  EXPECT_TRUE(injector.targets(ion_site(1)));
  EXPECT_TRUE(injector.targets(request_site(2)));
  // A shard stream is matched by its ion.<N>.request parent.
  EXPECT_TRUE(injector.targets(shard_site(2, 3)));
  EXPECT_FALSE(injector.targets(shard_site(1, 0)));
  EXPECT_FALSE(injector.targets(ion_site(2)));
  EXPECT_FALSE(injector.targets(busy_site(1)));
  EXPECT_FALSE(injector.targets(kPfsReadSite));
  EXPECT_EQ(injector.checks(request_site(2)), 0u);
}

TEST(FaultInjectorTargets, InertInjectorTargetsNothing) {
  const FaultInjector injector;
  EXPECT_FALSE(injector.targets(ion_site(0)));
  EXPECT_FALSE(injector.targets(request_site(0)));
  EXPECT_FALSE(injector.targets(kPfsReadSite));
}

TEST(FaultPlanDsl, BusySiteHelpers) {
  EXPECT_EQ(busy_site(3), "ion.3.busy");
  EXPECT_TRUE(site_is_valid("ion.0.busy"));
  EXPECT_TRUE(site_is_valid("ion.12.busy"));
  EXPECT_FALSE(site_is_valid("ion..busy"));
  EXPECT_FALSE(site_is_valid("ion.-1.busy"));
  EXPECT_EQ(ion_of_site("ion.7.busy"), 7);
}

TEST(FaultPlanDsl, BusySiteDslRoundTripsAndValidates) {
  // Forced IonBusy answers: count and probability triggered errors, and
  // stall windows on the admission path, all round-trip through the DSL.
  const std::string text =
      "seed 9\n"
      "after 2 error ion.0.busy\n"
      "prob 0.25 error ion.1.busy\n"
      "at 0.5 stall ion.0.busy 0.1\n";
  const auto plan = FaultPlan::parse(text);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->events.size(), 3u);
  const auto reparsed = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(plan->to_string(), reparsed->to_string());

  // busy is an admission point, not a lifecycle site: crash/restart
  // stay on ion.<N>.
  EXPECT_FALSE(FaultPlan::parse("at 0.5 crash ion.0.busy\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("at 0.5 restart ion.0.busy\n").has_value());
}

TEST(FaultPlanDsl, RpcSiteHelpers) {
  EXPECT_EQ(rpc_req_site(3), "rpc.ion.3.req");
  EXPECT_EQ(rpc_rsp_site(0), "rpc.ion.0.rsp");
  EXPECT_TRUE(site_is_rpc("rpc.ion.0.req"));
  EXPECT_TRUE(site_is_rpc("rpc.ion.12.rsp"));
  EXPECT_TRUE(site_is_rpc(kRpcMappingReqSite));
  EXPECT_TRUE(site_is_rpc(kRpcMappingRspSite));
  EXPECT_FALSE(site_is_rpc("ion.0"));
  EXPECT_FALSE(site_is_rpc("mapping.publish"));
  EXPECT_TRUE(site_is_valid("rpc.ion.0.req"));
  EXPECT_TRUE(site_is_valid(kRpcMappingReqSite));
  EXPECT_FALSE(site_is_valid("rpc.ion..req"));
  EXPECT_FALSE(site_is_valid("rpc.ion.0"));
  EXPECT_FALSE(site_is_valid("rpc.ion.0.ack"));
  EXPECT_FALSE(site_is_valid("rpc.mapping"));
}

TEST(FaultPlanDsl, MessageVerbsSurvivePrintParseRoundTrip) {
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_msg(rpc_req_site(0), 3)
      .drop_msg_prob(rpc_rsp_site(1), 0.125)
      .dup_msg(rpc_req_site(2), 1)
      .dup_msg_prob(kRpcMappingReqSite, 0.25)
      .reorder_msg(rpc_rsp_site(0), 4)
      .truncate_msg(kRpcMappingRspSite, 2)
      .truncate_msg_prob(rpc_req_site(1), 0.0625)
      .delay_msg(rpc_req_site(0), 5, 0.01);
  ASSERT_EQ(plan.validate(), std::nullopt);

  std::string error;
  const auto reparsed = FaultPlan::parse(plan.to_string(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, plan);
  EXPECT_EQ(reparsed->to_string(), plan.to_string());
}

TEST(FaultPlanDsl, MessageVerbsParseFromText) {
  const std::string text =
      "seed 5\n"
      "after 3 dup rpc.ion.0.req\n"
      "prob 0.25 drop rpc.ion.1.rsp\n"
      "after 1 reorder rpc.mapping.req\n"
      "after 2 truncate rpc.ion.0.rsp\n"
      "after 4 delay rpc.mapping.rsp 0.05\n";
  std::string error;
  const auto plan = FaultPlan::parse(text, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 5u);
  EXPECT_EQ(plan->events[0].kind, EventKind::Dup);
  EXPECT_EQ(plan->events[0].after, 3u);
  EXPECT_EQ(plan->events[1].kind, EventKind::Drop);
  EXPECT_DOUBLE_EQ(plan->events[1].probability, 0.25);
  EXPECT_EQ(plan->events[4].kind, EventKind::Delay);
  EXPECT_DOUBLE_EQ(plan->events[4].duration, 0.05);
}

TEST(FaultPlanDsl, RejectsMessageVerbsOffRpcSites) {
  // Frame verbs have exactly one home: the rpc.* frame sites.
  EXPECT_FALSE(FaultPlan::parse("after 1 dup ion.0\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("after 1 reorder pfs.write\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("after 1 truncate mapping.publish\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("prob 0.5 delay ion.0.request 0.1\n").has_value());
}

TEST(FaultPlanDsl, RejectsLegacyVerbsOnRpcSites) {
  // Crash a daemon, not its link; errors/stalls are check-site verbs.
  EXPECT_FALSE(FaultPlan::parse("at 0.5 crash rpc.ion.0.req\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("prob 0.5 error rpc.ion.0.req\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("at 0.5 stall rpc.ion.0.rsp 0.1\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("at 0.5 corrupt rpc.mapping.req\n").has_value());
}

TEST(FaultPlanDsl, RejectsTimeTriggeredMessageEvents) {
  // Message events are per-frame ('after'/'prob'): a wall-clock trigger
  // would break the k-th-frame determinism contract.
  EXPECT_FALSE(FaultPlan::parse("at 0.5 dup rpc.ion.0.req\n").has_value());
  EXPECT_FALSE(FaultPlan::parse("at 0.5 drop rpc.ion.0.req\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("at 0.5 delay rpc.ion.0.req 0.1\n").has_value());
}

TEST(FaultPlanDsl, RejectsNonPositiveDelayDuration) {
  EXPECT_FALSE(
      FaultPlan::parse("after 1 delay rpc.ion.0.req 0\n").has_value());
  EXPECT_FALSE(
      FaultPlan::parse("after 1 delay rpc.ion.0.req -0.1\n").has_value());
  EXPECT_NE(parse_error("after 1 delay rpc.ion.0.req\n").find("duration"),
            std::string::npos);
}

// --- BackoffPolicy hardening (PR 10 satellite) ---------------------------

TEST(BackoffPolicy, DefaultsAreValid) {
  const BackoffPolicy p;
  EXPECT_GT(p.base, 0.0);
  EXPECT_GE(p.cap, p.base);
  EXPECT_GT(p.multiplier, 0.0);
  EXPECT_GE(p.jitter, 0.0);
  EXPECT_LE(p.jitter, 1.0);
}

TEST(BackoffPolicy, PositionalCtorAcceptsSaneValues) {
  const BackoffPolicy p(1e-3, 0.5, 2.0, 0.25);
  EXPECT_DOUBLE_EQ(p.base, 1e-3);
  EXPECT_DOUBLE_EQ(p.cap, 0.5);
  EXPECT_DOUBLE_EQ(p.multiplier, 2.0);
  EXPECT_DOUBLE_EQ(p.jitter, 0.25);
  // Degenerate-but-legal: constant delay, no jitter.
  EXPECT_NO_THROW(BackoffPolicy(0.1, 0.1, 1.0, 0.0));
}

TEST(BackoffPolicy, PositionalCtorRejectsDegenerateSchedules) {
  // base <= 0 busy-spins every retry chain.
  EXPECT_THROW(BackoffPolicy(0.0, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(BackoffPolicy(-1e-3, 1.0, 2.0), std::invalid_argument);
  // cap < base inverts the ceiling.
  EXPECT_THROW(BackoffPolicy(1.0, 0.5, 2.0), std::invalid_argument);
  // multiplier <= 0 collapses or negates the growth.
  EXPECT_THROW(BackoffPolicy(1e-3, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(BackoffPolicy(1e-3, 1.0, -2.0), std::invalid_argument);
  // jitter outside [0, 1] produces negative delays.
  EXPECT_THROW(BackoffPolicy(1e-3, 1.0, 2.0, -0.1), std::invalid_argument);
  EXPECT_THROW(BackoffPolicy(1e-3, 1.0, 2.0, 1.5), std::invalid_argument);
}

TEST(BackoffPolicy, DelaysStayWithinTheJitteredEnvelope) {
  const BackoffPolicy p(1e-3, 8e-3, 2.0, 0.5);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const Seconds d = backoff_delay(p, attempt, /*seed=*/17u);
    EXPECT_GT(d, 0.0) << attempt;
    EXPECT_LE(d, p.cap) << attempt;
  }
  // The stateless flavour is deterministic in (policy, attempt, seed).
  EXPECT_DOUBLE_EQ(backoff_delay(p, 3, 17u), backoff_delay(p, 3, 17u));
  EXPECT_NE(backoff_delay(p, 3, 17u), backoff_delay(p, 3, 18u));
}

}  // namespace
}  // namespace iofa::fault
