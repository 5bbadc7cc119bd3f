// Tests for the event-sourced reward service and the event log.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/factory.h"
#include "core/l_transform.h"
#include "core/registry.h"
#include "server/event_log.h"
#include "server/reward_service.h"
#include "tree/generators.h"

namespace itree {
namespace {

TEST(RewardServiceTest, SelectsIncrementalModeWhereSupported) {
  const MechanismPtr geometric = make_default(MechanismKind::kGeometric);
  const MechanismPtr lluxor = make_default(MechanismKind::kLLuxor);
  const MechanismPtr cdrm = make_default(MechanismKind::kCdrmReciprocal);
  const MechanismPtr tdrm = make_default(MechanismKind::kTdrm);
  const MechanismPtr split_proof = make_default(MechanismKind::kSplitProof);
  const MechanismPtr lpachira = make_default(MechanismKind::kLPachira);
  const MechanismPtr normalized =
      make_mechanism("norm-preliminary-tdrm", parse_param_string(""));
  for (const Mechanism* mechanism :
       {geometric.get(), lluxor.get(), cdrm.get(), split_proof.get(),
        lpachira.get(), normalized.get()}) {
    EXPECT_EQ(RewardService(*mechanism).aggregate_kind(),
              AggregateKind::kAggregateEngine)
        << mechanism->display_name();
  }
  // TDRM's aggregates live on the virtual RCT, not the referral tree.
  EXPECT_EQ(RewardService(*tdrm).aggregate_kind(), AggregateKind::kRctChain);
}

TEST(RewardServiceTest, RefusesAMechanismWithoutAnIncrementalPath) {
  // A generic L-transform declares no aggregate support: the service
  // refuses it once, at construction, naming it.
  const LTransformMechanism generic(default_budget(),
                                    std::make_unique<Pachira>(0.2, 2.0),
                                    PropertySet::all());
  try {
    RewardService service(generic);
    ADD_FAILURE() << "constructed a service for " << generic.display_name();
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "RewardService: mechanism 'L-Pachira()' has no incremental "
                 "serving path");
  }
}

TEST(RewardServiceTest, JoinAndContributeUpdateRewards) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  RewardService service(*mechanism);
  const NodeId a = service.apply(JoinEvent{kRoot, 5.0});
  const NodeId b = service.apply(JoinEvent{a, 3.0});
  EXPECT_NEAR(service.reward(a), 0.2 * (5.0 + 0.5 * 3.0), 1e-12);
  service.apply(ContributeEvent{b, 1.0});
  EXPECT_NEAR(service.reward(a), 0.2 * (5.0 + 0.5 * 4.0), 1e-12);
  EXPECT_EQ(service.events_applied(), 3u);
}

/// Parameterized by factory name (core/factory.h): every mechanism the
/// daemon can serve, including NormPreliminaryTDRM, which has no
/// MechanismKind.
class ServiceEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ServiceEquivalence, IncrementalAndBatchAgreeOnRandomStreams) {
  const MechanismPtr mechanism =
      make_mechanism(GetParam(), parse_param_string(""));
  RewardService service(*mechanism);
  Rng rng(61);
  for (int event = 0; event < 250; ++event) {
    const std::size_t n = service.tree().participant_count();
    if (n == 0 || rng.bernoulli(0.65)) {
      const NodeId parent =
          (n == 0 || rng.bernoulli(0.1))
              ? kRoot
              : static_cast<NodeId>(1 + rng.index(n));
      service.apply(JoinEvent{parent, rng.uniform(0.0, 3.0)});
    } else {
      service.apply(ContributeEvent{
          static_cast<NodeId>(1 + rng.index(n)), rng.uniform(0.0, 2.0)});
    }
  }
  // audit() compares incremental answers against a fresh batch compute.
  EXPECT_LT(service.audit(), 1e-9);
  // Spot checks of the single-participant query path.
  const RewardVector batch = service.rewards();
  for (NodeId u = 1; u < service.tree().node_count(); u += 7) {
    EXPECT_NEAR(service.reward(u), batch[u], 1e-9);
  }
  // Total reward agreement.
  EXPECT_NEAR(service.total_reward(), total_reward(batch), 1e-6);
}

/// A mechanism's name as a test-name piece ("CDRM-1" -> "CDRM1").
std::string mechanism_case_name(
    const ::testing::TestParamInfo<const char*>& info) {
  std::string name = make_mechanism(info.param, parse_param_string(""))->name();
  std::erase(name, '-');
  return name;
}

INSTANTIATE_TEST_SUITE_P(IncrementalMechanisms, ServiceEquivalence,
                         ::testing::Values("geometric", "l-luxor", "cdrm-1",
                                           "cdrm-2", "split-proof", "tdrm",
                                           "l-pachira", "preliminary-tdrm",
                                           "norm-preliminary-tdrm"),
                         mechanism_case_name);

TEST(RewardServiceTest, RejectsBadEvents) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  RewardService service(*mechanism);
  EXPECT_THROW(service.apply(JoinEvent{kRoot, -1.0}), std::invalid_argument);
  EXPECT_THROW(service.apply(ContributeEvent{42, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(service.reward(kRoot), std::invalid_argument);
}

TEST(RewardServiceTest, ErrorPathsLeaveStateUntouched) {
  // A rejected event must not half-apply: counters, tree size and
  // rewards all stay as they were.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  RewardService service(*mechanism);
  const NodeId a = service.apply(JoinEvent{kRoot, 5.0});
  const double before = service.reward(a);

  // Contribution to an unknown participant.
  EXPECT_THROW(service.apply(ContributeEvent{77, 1.0}),
               std::invalid_argument);
  // Negative contribution amount to an existing participant.
  EXPECT_THROW(service.apply(ContributeEvent{a, -0.25}),
               std::invalid_argument);
  // Join under an unknown referrer.
  EXPECT_THROW(service.apply(JoinEvent{99, 1.0}), std::invalid_argument);

  EXPECT_EQ(service.events_applied(), 1u);
  EXPECT_EQ(service.tree().participant_count(), 1u);
  EXPECT_EQ(service.reward(a), before);
}

TEST(EventLogTest, SerializeParseRoundTrip) {
  EventLog log;
  log.append(JoinEvent{kRoot, 2.5});
  log.append(JoinEvent{1, 1.25});
  log.append(ContributeEvent{1, 0.75});
  const EventLog parsed = EventLog::parse(log.serialize());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(std::get<JoinEvent>(parsed.events()[0]), (JoinEvent{kRoot, 2.5}));
  EXPECT_EQ(std::get<ContributeEvent>(parsed.events()[2]),
            (ContributeEvent{1, 0.75}));
}

TEST(EventLogTest, ParseRejectsGarbage) {
  EXPECT_THROW(EventLog::parse("X 1 2\n"), std::invalid_argument);
  EXPECT_THROW(EventLog::parse("J one 2\n"), std::invalid_argument);
  EXPECT_NO_THROW(EventLog::parse("\nJ 0 1\n\n"));  // blank lines ok
}

TEST(EventLogTest, ParseSkipsCommentsAndWhitespaceLines) {
  const EventLog log = EventLog::parse(
      "# a hand-edited log\n"
      "J 0 2.5\n"
      "   \t \n"
      "  # indented comment\n"
      "C 1 0.75\n");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(std::get<ContributeEvent>(log.events()[1]),
            (ContributeEvent{1, 0.75}));
}

TEST(EventLogTest, ParseAcceptsInlineCommentsAndEventIds) {
  const EventLog log = EventLog::parse(
      "@0 J 0 2.5   # founder\n"
      "@1 C 1 0.75# no space before the comment\n"
      "J 3 1.0\n");  // bare lines still parse (wire form)
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(std::get<JoinEvent>(log.events()[0]), (JoinEvent{kRoot, 2.5}));
  EXPECT_EQ(std::get<ContributeEvent>(log.events()[1]),
            (ContributeEvent{1, 0.75}));
}

TEST(EventLogTest, ParseRejectsDuplicateEventIds) {
  EXPECT_THROW(EventLog::parse("@7 J 0 1\n@7 C 1 2\n"),
               std::invalid_argument);
  // Same id with non-canonical spelling is still the same id.
  EXPECT_THROW(EventLog::parse("@7 J 0 1\n@07 C 1 2\n"),
               std::invalid_argument);
  EXPECT_NO_THROW(EventLog::parse("@7 J 0 1\n@8 C 1 2\n"));
}

TEST(EventLogTest, ParseRejectsTrailingGarbageAndHalfLines) {
  EXPECT_THROW(EventLog::parse("J 0 1 extra\n"), std::invalid_argument);
  EXPECT_THROW(EventLog::parse("J 0\n"), std::invalid_argument);
  EXPECT_THROW(EventLog::parse("@ J 0 1\n"), std::invalid_argument);
  EXPECT_THROW(EventLog::parse("@x J 0 1\n"), std::invalid_argument);
  EXPECT_THROW(EventLog::parse("J 1x 2\n"), std::invalid_argument);
  EXPECT_THROW(EventLog::parse("C 1 2.5z\n"), std::invalid_argument);
  EXPECT_THROW(EventLog::parse("J -1 2\n"), std::invalid_argument);
  // A comment is the only thing allowed after the fields.
  EXPECT_NO_THROW(EventLog::parse("J 0 1 # fine\n"));
}

TEST(EventLogTest, SaveWritesAuditableIdsThatLoadBack) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "itree_event_log_ids_test.log";
  EventLog log;
  log.append(JoinEvent{kRoot, 2.5});
  log.append(ContributeEvent{1, 0.75});
  log.save(path.string());

  std::ifstream in(path);
  std::string first, second;
  std::getline(in, first);
  std::getline(in, second);
  EXPECT_EQ(first.rfind("#", 0), 0u);  // header comment
  EXPECT_EQ(second.rfind("@0 ", 0), 0u);  // sequential event ids

  const EventLog loaded = EventLog::load(path.string());
  EXPECT_EQ(loaded.events(), log.events());
  // serialize() stays the bare wire form, id-free.
  EXPECT_EQ(loaded.serialize().find('@'), std::string::npos);
  fs::remove(path);
}

TEST(EventLogTest, FromTreeCompactsToStateEquivalentJoins) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  RewardService service(*mechanism);
  const NodeId a = service.apply(JoinEvent{kRoot, 4.0});
  const NodeId b = service.apply(JoinEvent{a, 2.0});
  service.apply(ContributeEvent{b, 1.5});
  service.apply(JoinEvent{b, 0.5});

  const EventLog compacted = EventLog::from_tree(service.tree());
  // One join per participant, contributions folded in.
  EXPECT_EQ(compacted.size(), service.tree().participant_count());
  const RewardService replayed = compacted.replay(*mechanism);
  EXPECT_EQ(replayed.rewards(), service.rewards());
  EXPECT_EQ(replayed.tree().contribution(b), 3.5);
}

TEST(EventLogTest, SaveAndLoadRoundTripThroughAFile) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "itree_event_log_test.log";
  EventLog log;
  log.append(JoinEvent{kRoot, 2.5});
  log.append(JoinEvent{1, 0.1 + 0.2});  // exercise full precision
  log.append(ContributeEvent{2, 1.0 / 3.0});
  log.save(path.string());

  const EventLog loaded = EventLog::load(path.string());
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.events(), log.events());
  fs::remove(path);

  EXPECT_THROW(EventLog::load("/nonexistent/dir/evt.log"),
               std::runtime_error);
  EXPECT_THROW(log.save("/nonexistent/dir/evt.log"), std::runtime_error);
}

TEST(EventLogTest, ReplayReconstructsTheDeployment) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  // The deployment keeps its history beside the live service.
  RewardService service(*mechanism);
  EventLog log;
  const auto record = [&](const Event& event) {
    log.append(event);
    return service.apply(event);
  };
  const NodeId a = *record(JoinEvent{kRoot, 4.0});
  const NodeId b = *record(JoinEvent{a, 2.0});
  record(ContributeEvent{b, 1.5});
  record(JoinEvent{b, 0.5});

  const EventLog parsed = EventLog::parse(log.serialize());
  EXPECT_EQ(parsed.events(), log.events());
  const RewardService replayed = parsed.replay(*mechanism);
  ASSERT_EQ(replayed.tree().node_count(), service.tree().node_count());
  for (NodeId u = 1; u < replayed.tree().node_count(); ++u) {
    EXPECT_DOUBLE_EQ(replayed.reward(u), service.reward(u));
    EXPECT_DOUBLE_EQ(replayed.tree().contribution(u),
                     service.tree().contribution(u));
  }
}

TEST(EventLogTest, ReplayUnderDifferentMechanismReusesHistory) {
  // The same deployment history can be re-priced under another
  // mechanism — e.g. to evaluate a migration before switching.
  const MechanismPtr geometric = make_default(MechanismKind::kGeometric);
  const MechanismPtr cdrm = make_default(MechanismKind::kCdrmReciprocal);
  RewardService live(*geometric);
  EventLog log;
  const auto record = [&](const Event& event) {
    log.append(event);
    return live.apply(event);
  };
  const NodeId a = *record(JoinEvent{kRoot, 4.0});
  record(JoinEvent{a, 2.0});
  const RewardService repriced = log.replay(*cdrm);
  EXPECT_NE(repriced.reward(a), live.reward(a));
  EXPECT_NEAR(repriced.reward(a),
              (0.5 - 0.4 / (1.0 + 4.0 + 2.0)) * 4.0, 1e-12);
}

}  // namespace
}  // namespace itree
