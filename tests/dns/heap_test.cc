#include "src/dns/heap.h"

#include <gtest/gtest.h>

#include "src/dns/example_zones.h"
#include "src/engine/engine.h"

namespace dnsv {
namespace {

class HeapTest : public ::testing::Test {
 protected:
  HeapTest() : engine_(CompiledEngine::Compile(EngineVersion::kGolden)) {}

  HeapImage Build(const ZoneConfig& zone) {
    canonical_ = CanonicalizeZone(zone).value();
    return BuildHeapImage(canonical_, &interner_, engine_->types(), &memory_).value();
  }

  // Follows the down/left/right pointers to find a child with `label`.
  const Value* FindChild(const Value& node_ptr, const std::string& label) {
    const Value* node = memory_.Resolve(node_ptr.block, node_ptr.path);
    if (node == nullptr) {
      return nullptr;
    }
    StructLayout layout(engine_->types(), kStructTreeNode);
    int64_t code = interner_.Intern(label).value();
    const Value* cur_ptr = &node->elems[layout.index("down")];
    while (!cur_ptr->IsNullPtr()) {
      const Value* cur = memory_.Resolve(cur_ptr->block, cur_ptr->path);
      int64_t cur_label = cur->elems[layout.index("label")].i;
      if (code == cur_label) {
        return cur;
      }
      cur_ptr = &cur->elems[layout.index(code < cur_label ? "left" : "right")];
    }
    return nullptr;
  }

  std::unique_ptr<CompiledEngine> engine_;
  ZoneConfig canonical_;
  LabelInterner interner_;
  ConcreteMemory memory_;
};

TEST_F(HeapTest, EngineLayoutValidates) {
  EXPECT_TRUE(ValidateEngineLayout(engine_->types()).ok());
}

TEST_F(HeapTest, FlatListMatchesCanonicalOrder) {
  HeapImage image = Build(Figure11Zone());
  ASSERT_EQ(image.zone_rrs.elems.size(), canonical_.records.size());
  StructLayout rr(engine_->types(), kStructRr);
  for (size_t i = 0; i < canonical_.records.size(); ++i) {
    EXPECT_EQ(image.zone_rrs.elems[i].elems[rr.index("rtype")].i,
              static_cast<int64_t>(canonical_.records[i].type))
        << "record " << i;
  }
}

TEST_F(HeapTest, TreeShapeMatchesFigure11) {
  HeapImage image = Build(Figure11Zone());
  // Fig. 11: apex has children {ns1, www, cs}; cs has {web, zoo}.
  EXPECT_NE(FindChild(image.apex_ptr, "www"), nullptr);
  EXPECT_NE(FindChild(image.apex_ptr, "cs"), nullptr);
  EXPECT_NE(FindChild(image.apex_ptr, "ns1"), nullptr);
  EXPECT_EQ(FindChild(image.apex_ptr, "zoo"), nullptr);  // zoo only under cs

  const Value* cs = FindChild(image.apex_ptr, "cs");
  ASSERT_NE(cs, nullptr);
  StructLayout layout(engine_->types(), kStructTreeNode);
  Value cs_ptr = Value::Ptr(0);
  // Re-locate cs as a pointer by scanning: FindChild returned the struct; use
  // its down list through the struct directly.
  const Value* web = nullptr;
  {
    // Find from cs's down pointer.
    const Value* cur = cs;
    const Value* down_ptr = &cur->elems[layout.index("down")];
    ASSERT_FALSE(down_ptr->IsNullPtr());
    // cs has exactly two children (web, zoo) in a BST.
    const Value* root = memory_.Resolve(down_ptr->block, down_ptr->path);
    ASSERT_NE(root, nullptr);
    int64_t web_code = interner_.Intern("web").value();
    if (root->elems[layout.index("label")].i == web_code) {
      web = root;
    } else {
      const Value* left = &root->elems[layout.index("left")];
      const Value* right = &root->elems[layout.index("right")];
      if (!left->IsNullPtr()) {
        const Value* l = memory_.Resolve(left->block, left->path);
        if (l->elems[layout.index("label")].i == web_code) web = l;
      }
      if (web == nullptr && !right->IsNullPtr()) {
        const Value* r = memory_.Resolve(right->block, right->path);
        if (r->elems[layout.index("label")].i == web_code) web = r;
      }
    }
  }
  EXPECT_NE(web, nullptr);
  // 8 nodes: apex, ns1, www, cs, web, zoo (+0 ENTs in this zone).
  EXPECT_EQ(image.num_tree_nodes, 6);
  (void)cs_ptr;
}

TEST_F(HeapTest, EmptyNonTerminalNodesAreCreated) {
  HeapImage image = Build(KitchenSinkZone());
  // "ent" exists only as ancestor of leaf.ent: it must be a tree node with no
  // rrsets.
  const Value* ent = FindChild(image.apex_ptr, "ent");
  ASSERT_NE(ent, nullptr);
  StructLayout layout(engine_->types(), kStructTreeNode);
  EXPECT_TRUE(ent->elems[layout.index("rrsets")].elems.empty());
}

TEST_F(HeapTest, RrsetsGroupedByType) {
  HeapImage image = Build(KitchenSinkZone());
  const Value* www = FindChild(image.apex_ptr, "www");
  ASSERT_NE(www, nullptr);
  StructLayout node(engine_->types(), kStructTreeNode);
  StructLayout rrset(engine_->types(), kStructRrSet);
  const Value& rrsets = www->elems[node.index("rrsets")];
  // www has A (x2) and TXT.
  ASSERT_EQ(rrsets.elems.size(), 2u);
  EXPECT_EQ(rrsets.elems[0].elems[rrset.index("rtype")].i, 1);   // A first
  EXPECT_EQ(rrsets.elems[0].elems[rrset.index("rrs")].elems.size(), 2u);
  EXPECT_EQ(rrsets.elems[1].elems[rrset.index("rtype")].i, 16);  // TXT
}

TEST_F(HeapTest, OriginLabelsRootFirst) {
  HeapImage image = Build(Figure11Zone());
  ASSERT_EQ(image.origin_labels.elems.size(), 2u);
  EXPECT_EQ(interner_.Decode(image.origin_labels.elems[0].i), "com");
  EXPECT_EQ(interner_.Decode(image.origin_labels.elems[1].i), "example");
}

TEST_F(HeapTest, WildcardNodeUsesStarCode) {
  HeapImage image = Build(KitchenSinkZone());
  const Value* dyn = FindChild(image.apex_ptr, "dyn");
  ASSERT_NE(dyn, nullptr);
  StructLayout layout(engine_->types(), kStructTreeNode);
  const Value* star_ptr = &dyn->elems[layout.index("down")];
  ASSERT_FALSE(star_ptr->IsNullPtr());
  const Value* star = memory_.Resolve(star_ptr->block, star_ptr->path);
  EXPECT_EQ(star->elems[layout.index("label")].i, 2);  // LABEL_STAR
}

}  // namespace
}  // namespace dnsv
