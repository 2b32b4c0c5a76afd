// The stage API (Table 3) and classification semantics (Figure 6).
#include "core/stage.h"

#include <gtest/gtest.h>

#include "apps/memcached_stage.h"

namespace eden::core {
namespace {

class StageTest : public ::testing::Test {
 protected:
  ClassRegistry registry_;
  apps::MemcachedStage stage_{registry_};
};

TEST_F(StageTest, GetStageInfoDescribesCapabilities) {
  const StageInfo info = stage_.get_stage_info();
  EXPECT_EQ(info.name, "memcached");
  EXPECT_EQ(info.classifier_fields,
            (std::vector<std::string>{"msg_type", "key"}));
  EXPECT_EQ(info.meta_fields.size(), 4u);
}

TEST_F(StageTest, CreateRuleInternsQualifiedClass) {
  stage_.create_rule("r1",
                     {FieldPattern::exact("GET"), FieldPattern::any()},
                     "GET");
  EXPECT_NE(registry_.find("memcached.r1.GET"), kInvalidClass);
  EXPECT_EQ(stage_.rule_count(), 1u);
}

TEST_F(StageTest, ClassifierArityChecked) {
  EXPECT_THROW(stage_.create_rule("r1", {FieldPattern::any()}, "X"),
               std::invalid_argument);
  // Names that would not round-trip as memcached.<rule_set>.<class>.
  const Classifier any{FieldPattern::any(), FieldPattern::any()};
  EXPECT_THROW(stage_.create_rule("r.x", any, "c"), std::invalid_argument);
  EXPECT_THROW(stage_.create_rule("r", any, "x.c"), std::invalid_argument);
  EXPECT_THROW(stage_.create_rule("r", any, "*"), std::invalid_argument);
  EXPECT_THROW(stage_.create_rule("", any, ""), std::invalid_argument);
  EXPECT_EQ(stage_.rule_count(), 0u);
  EXPECT_EQ(registry_.size(), 0u);
}

TEST_F(StageTest, RemoveRule) {
  const RuleId id = stage_.create_rule(
      "r1", {FieldPattern::exact("GET"), FieldPattern::any()}, "GET");
  EXPECT_TRUE(stage_.remove_rule("r1", id));
  EXPECT_FALSE(stage_.remove_rule("r1", id));  // already gone
  EXPECT_FALSE(stage_.remove_rule("nope", 1));
  EXPECT_EQ(stage_.rule_count(), 0u);
}

// Figure 6's rule-sets: r1 (GET/PUT), r2 (DEFAULT catch-all), r3
// (key-specific).
class Figure6Rules : public StageTest {
 protected:
  void SetUp() override {
    stage_.create_rule("r1", {FieldPattern::exact("GET"), FieldPattern::any()},
                       "GET");
    stage_.create_rule("r1", {FieldPattern::exact("PUT"), FieldPattern::any()},
                       "PUT");
    stage_.create_rule("r2", {FieldPattern::any(), FieldPattern::any()},
                       "DEFAULT");
    stage_.create_rule("r3", {FieldPattern::exact("GET"),
                              FieldPattern::exact("a")},
                       "GETA");
    stage_.create_rule("r3", {FieldPattern::any(), FieldPattern::exact("a")},
                       "A");
    stage_.create_rule("r3", {FieldPattern::any(), FieldPattern::any()},
                       "OTHER");
  }

  bool has_class(const Classification& c, const std::string& full) const {
    const ClassId id = registry_.find(full);
    return id != kInvalidClass && c.classes.contains(id);
  }
};

TEST_F(Figure6Rules, PutForKeyAGetsThreeClasses) {
  // The paper: a PUT for key "a" belongs to memcached.r1.PUT,
  // memcached.r2.DEFAULT and memcached.r3.A.
  const Classification c = stage_.classify({"PUT", "a"}, {});
  EXPECT_EQ(c.classes.size(), 3u);
  EXPECT_TRUE(has_class(c, "memcached.r1.PUT"));
  EXPECT_TRUE(has_class(c, "memcached.r2.DEFAULT"));
  EXPECT_TRUE(has_class(c, "memcached.r3.A"));
}

TEST_F(Figure6Rules, GetForKeyAMatchesMostSpecificInR3) {
  const Classification c = stage_.classify({"GET", "a"}, {});
  EXPECT_TRUE(has_class(c, "memcached.r1.GET"));
  EXPECT_TRUE(has_class(c, "memcached.r3.GETA"));
  // At most one class per rule-set: GETA matched first, so not A/OTHER.
  EXPECT_FALSE(has_class(c, "memcached.r3.A"));
  EXPECT_FALSE(has_class(c, "memcached.r3.OTHER"));
}

TEST_F(Figure6Rules, UnknownTypeStillGetsDefaults) {
  const Classification c = stage_.classify({"FLUSH", "zz"}, {});
  EXPECT_FALSE(has_class(c, "memcached.r1.GET"));
  EXPECT_FALSE(has_class(c, "memcached.r1.PUT"));
  EXPECT_TRUE(has_class(c, "memcached.r2.DEFAULT"));
  EXPECT_TRUE(has_class(c, "memcached.r3.OTHER"));
}

TEST_F(Figure6Rules, AssignsFreshMessageIds) {
  const Classification c1 = stage_.classify({"GET", "a"}, {});
  const Classification c2 = stage_.classify({"GET", "a"}, {});
  EXPECT_NE(c1.meta.msg_id, 0);
  EXPECT_NE(c1.meta.msg_id, c2.meta.msg_id);
}

TEST_F(Figure6Rules, KeepsCallerProvidedMessageId) {
  netsim::PacketMeta available;
  available.msg_id = 4242;
  const Classification c = stage_.classify({"GET", "a"}, available);
  EXPECT_EQ(c.meta.msg_id, 4242);
}

TEST_F(StageTest, MetaMaskFiltersFields) {
  stage_.create_rule("r1", {FieldPattern::any(), FieldPattern::any()}, "ALL",
                     meta_bit(MetaField::msg_id));
  netsim::PacketMeta available;
  available.msg_type = 7;
  available.msg_size = 999;
  available.tenant = 3;
  const Classification c = stage_.classify({"GET", "k"}, available);
  EXPECT_NE(c.meta.msg_id, 0);     // requested
  EXPECT_EQ(c.meta.msg_type, 0);   // masked out
  EXPECT_EQ(c.meta.msg_size, 0);
  EXPECT_EQ(c.meta.tenant, 0);
}

TEST_F(StageTest, FullMaskCopiesEverything) {
  stage_.create_rule("r1", {FieldPattern::any(), FieldPattern::any()}, "ALL",
                     kMetaAll);
  netsim::PacketMeta available;
  available.msg_type = 7;
  available.msg_size = 999;
  available.tenant = 3;
  available.key_hash = 11;
  available.flow_size = 1234;
  available.app_priority = 6;
  const Classification c = stage_.classify({"GET", "k"}, available);
  EXPECT_EQ(c.meta.msg_type, 7);
  EXPECT_EQ(c.meta.msg_size, 999);
  EXPECT_EQ(c.meta.tenant, 3);
  EXPECT_EQ(c.meta.key_hash, 11);
  EXPECT_EQ(c.meta.flow_size, 1234);
  EXPECT_EQ(c.meta.app_priority, 6);
}

TEST_F(StageTest, NoRulesMeansNoClasses) {
  const Classification c = stage_.classify({"GET", "a"}, {});
  EXPECT_EQ(c.classes.size(), 0u);
  EXPECT_EQ(c.meta.msg_id, 0);
}

TEST(MemcachedStageHelpers, KeyHashIsStableAndNonNegative) {
  const std::int64_t h1 = apps::MemcachedStage::key_hash("user:17");
  EXPECT_EQ(h1, apps::MemcachedStage::key_hash("user:17"));
  EXPECT_NE(h1, apps::MemcachedStage::key_hash("user:18"));
  EXPECT_GE(h1, 0);
  EXPECT_GE(apps::MemcachedStage::key_hash(""), 0);
}

}  // namespace
}  // namespace eden::core
