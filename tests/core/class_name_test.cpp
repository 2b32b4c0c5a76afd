#include "core/class_name.h"

#include <gtest/gtest.h>

#include "netsim/packet.h"

namespace eden::core {
namespace {

TEST(ParseClassName, AcceptsFullyQualifiedNames) {
  const auto name = parse_class_name("memcached.r1.GET");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->stage, "memcached");
  EXPECT_EQ(name->rule_set, "r1");
  EXPECT_EQ(name->class_name, "GET");
  EXPECT_EQ(name->full(), "memcached.r1.GET");
}

TEST(ParseClassName, RejectsMalformedNames) {
  EXPECT_FALSE(parse_class_name("").has_value());
  EXPECT_FALSE(parse_class_name("a").has_value());
  EXPECT_FALSE(parse_class_name("a.b").has_value());
  EXPECT_FALSE(parse_class_name("a.b.c.d").has_value());
  EXPECT_FALSE(parse_class_name("a..c").has_value());
  EXPECT_FALSE(parse_class_name(".b.c").has_value());
  EXPECT_FALSE(parse_class_name("a.b.").has_value());
}

TEST(ClassRegistry, InternsToStableIds) {
  ClassRegistry reg;
  const ClassId get = reg.intern("memcached.r1.GET");
  const ClassId put = reg.intern("memcached.r1.PUT");
  EXPECT_NE(get, put);
  EXPECT_EQ(reg.intern("memcached.r1.GET"), get);  // idempotent
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(get).class_name, "GET");
}

TEST(ClassRegistry, FindDoesNotIntern) {
  ClassRegistry reg;
  EXPECT_EQ(reg.find("a.b.c"), kInvalidClass);
  EXPECT_EQ(reg.size(), 0u);
  const ClassId id = reg.intern("a.b.c");
  EXPECT_EQ(reg.find("a.b.c"), id);
}

TEST(ClassRegistry, InternRejectsMalformed) {
  ClassRegistry reg;
  EXPECT_THROW(reg.intern("oops"), std::invalid_argument);
  // Components must round-trip through parse_class_name: a dot inside
  // one would let ("r.x", "c") and ("r", "x.c") share the id of
  // "app.r.x.c"; "*" is a pattern, not a class; empty is no name.
  for (const QualifiedClassName& bad : {
           QualifiedClassName{"app", "r.x", "c"},
           QualifiedClassName{"app", "r", "x.c"},
           QualifiedClassName{"a.pp", "r", "c"},
           QualifiedClassName{"app", "r", "*"},
           QualifiedClassName{"*", "r", "c"},
           QualifiedClassName{"app", "", "c"},
           QualifiedClassName{"app", "r", ""},
       }) {
    EXPECT_THROW(reg.intern(bad), std::invalid_argument) << bad.full();
  }
  EXPECT_THROW(reg.intern("app.r.*"), std::invalid_argument);
  EXPECT_THROW(reg.intern("*.*.*"), std::invalid_argument);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(ClassPattern, ExactMatch) {
  ClassRegistry reg;
  const ClassId get = reg.intern("memcached.r1.GET");
  const ClassId put = reg.intern("memcached.r1.PUT");
  const ClassPattern pattern("memcached.r1.GET");
  EXPECT_TRUE(pattern.matches(get, reg));
  EXPECT_FALSE(pattern.matches(put, reg));
  EXPECT_FALSE(pattern.match_any());
}

TEST(ClassPattern, WildcardComponents) {
  ClassRegistry reg;
  const ClassId mc_get = reg.intern("memcached.r1.GET");
  const ClassId mc_put = reg.intern("memcached.r1.PUT");
  const ClassId mc_r3 = reg.intern("memcached.r3.GETA");
  const ClassId http = reg.intern("http.r1.REQ");

  const ClassPattern stage_wild("*.r1.GET");
  EXPECT_TRUE(stage_wild.matches(mc_get, reg));
  EXPECT_FALSE(stage_wild.matches(http, reg));

  const ClassPattern class_wild("memcached.r1.*");
  EXPECT_TRUE(class_wild.matches(mc_get, reg));
  EXPECT_TRUE(class_wild.matches(mc_put, reg));
  EXPECT_FALSE(class_wild.matches(mc_r3, reg));

  const ClassPattern ruleset_wild("memcached.*.*");
  EXPECT_TRUE(ruleset_wild.matches(mc_r3, reg));
  EXPECT_FALSE(ruleset_wild.matches(http, reg));
}

TEST(ClassPattern, MatchAnyMatchesEverything) {
  ClassRegistry reg;
  const ClassId id = reg.intern("a.b.c");
  const ClassPattern any("*");
  EXPECT_TRUE(any.match_any());
  EXPECT_TRUE(any.matches(id, reg));
}

TEST(ClassPattern, UnknownIdNeverMatches) {
  ClassRegistry reg;
  const ClassPattern pattern("a.b.c");
  EXPECT_FALSE(pattern.matches(12345, reg));
}

TEST(ClassPattern, MalformedPatternThrows) {
  EXPECT_THROW(ClassPattern("two.parts"), std::invalid_argument);
  EXPECT_THROW(ClassPattern(""), std::invalid_argument);
}

TEST(ClassList, BoundedCapacity) {
  netsim::ClassList list;
  for (std::uint32_t i = 0; i < netsim::ClassList::kCapacity; ++i) {
    EXPECT_TRUE(list.add(i));
  }
  EXPECT_FALSE(list.add(99));  // full
  EXPECT_EQ(list.size(), netsim::ClassList::kCapacity);
  EXPECT_TRUE(list.contains(0));
  EXPECT_FALSE(list.contains(99));
  list.clear();
  EXPECT_EQ(list.size(), 0u);
}

}  // namespace
}  // namespace eden::core
