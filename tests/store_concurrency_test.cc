#include "store/version_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tree/builder.h"

namespace treediff {
namespace {

std::string SexprForVersion(int v) {
  std::string text;
  for (int i = 0; i <= v; ++i) {
    text += "(S \"word" + std::to_string(i) + " tail\") ";
  }
  return "(D (P " + text + "))";
}

// VersionStore methods are internally serialized (see version_store.h), so
// readers may race a committer without external locking. Run under TSan
// (this test carries the `concurrency` ctest label) this also proves the
// GUARDED_BY annotations describe the locking that actually happens.
TEST(StoreConcurrencyTest, ReadersRaceCommitsSafely) {
  auto labels = std::make_shared<LabelTable>();
  Tree base = *ParseSexpr(SexprForVersion(0), labels);
  VersionStore store(base.Clone());

  constexpr int kCommits = 12;
  std::atomic<bool> done{false};

  std::thread committer([&] {
    for (int v = 1; v <= kCommits; ++v) {
      Tree next = *ParseSexpr(SexprForVersion(v), labels);
      auto r = store.Commit(next);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, v);
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        // VersionCount and a subsequent Materialize are two separate
        // critical sections; the count can only grow, so any version it
        // reports stays materializable.
        int count = store.VersionCount();
        ASSERT_GE(count, 1);
        auto tree = store.Materialize(count - 1);
        ASSERT_TRUE(tree.ok());
        EXPECT_GE(tree->size(), 1u);
        // Info(0) is a zero VersionInfo by contract (version_store.h): a
        // reader that runs before the first commit sees only the base.
        if (count > 1) {
          VersionStore::VersionInfo info = store.Info(count - 1);
          EXPECT_GT(info.nodes, 0u);
        }
      }
    });
  }

  committer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(store.VersionCount(), kCommits + 1);
  auto final_tree = store.Materialize(kCommits);
  ASSERT_TRUE(final_tree.ok());
  Tree expected = *ParseSexpr(SexprForVersion(kCommits), labels);
  EXPECT_TRUE(Tree::Isomorphic(*final_tree, expected));
}

}  // namespace
}  // namespace treediff
