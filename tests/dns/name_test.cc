#include "src/dns/name.h"

#include <gtest/gtest.h>

#include "src/support/rng.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

TEST(DnsName, ParseBasics) {
  Result<DnsName> name = DnsName::Parse("www.Example.COM");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value().labels, (std::vector<std::string>{"www", "example", "com"}));
  EXPECT_EQ(name.value().ToString(), "www.example.com");
}

TEST(DnsName, ParseAbsoluteAndRoot) {
  EXPECT_EQ(DnsName::Parse("example.com.").value().NumLabels(), 2u);
  EXPECT_TRUE(DnsName::Parse("").value().Empty());
  EXPECT_EQ(DnsName::Parse("").value().ToString(), ".");
}

TEST(DnsName, ParseRejectsBadLabels) {
  EXPECT_FALSE(DnsName::Parse("a..b").ok());
  EXPECT_FALSE(DnsName::Parse("bad label.com").ok());
  EXPECT_FALSE(DnsName::Parse(std::string(64, 'a') + ".com").ok());
  EXPECT_FALSE(DnsName::Parse("ab*c.com").ok());      // '*' must be a whole label
  EXPECT_FALSE(DnsName::Parse("www.*.com").ok());     // '*' must be leftmost
  EXPECT_TRUE(DnsName::Parse("*.example.com").ok());
}

TEST(DnsName, SubdomainChecks) {
  DnsName www = DnsName::Parse("www.example.com").value();
  DnsName zone = DnsName::Parse("example.com").value();
  DnsName other = DnsName::Parse("example.org").value();
  EXPECT_TRUE(www.IsSubdomainOf(zone));
  EXPECT_TRUE(zone.IsSubdomainOf(zone));
  EXPECT_FALSE(zone.IsSubdomainOf(www));
  EXPECT_FALSE(www.IsSubdomainOf(other));
}

TEST(DnsName, ReversedLabels) {
  DnsName www = DnsName::Parse("www.example.com").value();
  EXPECT_EQ(www.ReversedLabels(), (std::vector<std::string>{"com", "example", "www"}));
}

TEST(LabelInterner, OrderPreservingForUpfrontLabels) {
  LabelInterner interner;
  int64_t a = interner.Intern("aaa").value();
  int64_t b = interner.Intern("bbb").value();
  int64_t c = interner.Intern("ccc").value();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(LabelInterner, OrderPreservingUnderLateInsertion) {
  LabelInterner interner;
  int64_t a = interner.Intern("aaa").value();
  int64_t c = interner.Intern("ccc").value();
  int64_t b = interner.Intern("bbb").value();  // inserted between existing neighbors
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(LabelInterner, StableAndCaseInsensitive) {
  LabelInterner interner;
  EXPECT_EQ(interner.Intern("WWW").value(), interner.Intern("www").value());
}

TEST(LabelInterner, WildcardHasFixedSmallestCode) {
  LabelInterner interner;
  int64_t star = interner.Intern("*").value();
  EXPECT_EQ(star, 2);
  // '*' must stay below every other label.
  EXPECT_LT(star, interner.Intern("0").value());
  EXPECT_LT(star, interner.Intern("a").value());
  EXPECT_LT(star, interner.Intern("-dash").value());
}

TEST(LabelInterner, DecodeRoundTrip) {
  LabelInterner interner;
  int64_t code = interner.Intern("example").value();
  EXPECT_EQ(interner.Decode(code), "example");
  EXPECT_EQ(interner.Decode(code + 1), StrCat("<label#", code + 1, ">"));
}

TEST(LabelInterner, InternNameIsRootFirst) {
  LabelInterner interner;
  DnsName www = DnsName::Parse("www.example.com").value();
  std::vector<int64_t> codes = interner.InternName(www);
  ASSERT_EQ(codes.size(), 3u);
  EXPECT_EQ(interner.Decode(codes[0]), "com");
  EXPECT_EQ(interner.Decode(codes[2]), "www");
}

// Property sweep: pairwise integer order always equals lexicographic order,
// regardless of insertion order.
class InternerOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(InternerOrderTest, PairwiseOrderMatchesLexicographic) {
  // Insert a label set in a seed-dependent shuffled order.
  std::vector<std::string> labels = {"a", "ab", "abc", "b", "ba", "corp", "corpx",
                                     "z", "z0", "z9", "zz", "-", "_", "0", "9"};
  SplitMix64 rng(static_cast<uint64_t>(GetParam()));
  for (size_t i = labels.size(); i > 1; --i) {
    std::swap(labels[i - 1], labels[rng.NextBelow(i)]);
  }
  LabelInterner interner;
  for (const std::string& label : labels) {
    ASSERT_TRUE(interner.Intern(label).ok());
  }
  for (const std::string& x : labels) {
    for (const std::string& y : labels) {
      EXPECT_EQ(x < y, interner.Intern(x).value() < interner.Intern(y).value())
          << x << " vs " << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shuffles, InternerOrderTest, ::testing::Range(0, 8));


TEST(LabelInterner, DecodeApproxExactAndSynthesized) {
  LabelInterner interner;
  int64_t cs = interner.Intern("cs").value();
  int64_t www = interner.Intern("www").value();
  EXPECT_EQ(interner.DecodeApprox(cs), "cs");
  // A code strictly between cs and www synthesizes a label just after "cs".
  int64_t mid = (cs + www) / 2;
  ASSERT_NE(mid, cs);
  ASSERT_NE(mid, www);
  std::string synthesized = interner.DecodeApprox(mid);
  EXPECT_GT(synthesized, std::string("cs"));
  EXPECT_LT(synthesized, std::string("www"));
  // Below every interned label (only "*" is pre-interned).
  EXPECT_EQ(interner.DecodeApprox(1), "0");
}

TEST(LabelInterner, DecodeApproxAboveAll) {
  LabelInterner interner;
  int64_t zz = interner.Intern("zz").value();
  std::string above = interner.DecodeApprox(zz + 1000);
  EXPECT_GT(above, std::string("zz"));
}

}  // namespace
}  // namespace dnsv
