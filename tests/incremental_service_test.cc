// Incremental serving (DiffServiceOptions::incremental): the share-map
// pre-pass prunes unchanged subtrees on every request, repeat requests over
// the same content fingerprints are answered from the result cache, and
// adjacent stored-version diffs are answered straight from the commit log.
// Each layer must be an observable accelerant (hit flags, PRUNE metrics)
// and must serve byte-identical scripts to the cold path. The conformance
// cases at the end check that every answer path (fresh run, result-cache
// hit, commit log, non-adjacent stored pair, the wire) serves a script that
// really turns T1 into T2.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/script_io.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "net/client.h"
#include "net/server.h"
#include "service/diff_service.h"
#include "store/version_store.h"
#include "tree/builder.h"

namespace treediff {
namespace {

DiffRequest InlineRequest(const std::string& old_doc,
                          const std::string& new_doc) {
  DiffRequest request;
  request.format = DiffRequest::Format::kSexpr;
  request.old_doc = old_doc;
  request.new_doc = new_doc;
  return request;
}

const char kBase[] =
    "(D (P (S \"alpha beta gamma\") (S \"delta epsilon\")) "
    "(P (S \"zeta eta\") (S \"theta iota kappa\")) "
    "(P (S \"lambda mu\")))";
const char kEdited[] =
    "(D (P (S \"alpha beta gamma\") (S \"delta epsilon\")) "
    "(P (S \"zeta eta\") (S \"theta iota CHANGED\")) "
    "(P (S \"lambda mu\")))";

TEST(IncrementalServiceTest, PruningEngagesAndMatchesTheColdPath) {
  DiffServiceOptions plain;
  plain.num_threads = 2;
  DiffService cold(plain);
  const DiffResponse cold_response =
      cold.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(cold_response.status.ok()) << cold_response.status.ToString();
  EXPECT_EQ(cold_response.pruned_subtrees, 0u);  // incremental off: no prune

  DiffServiceOptions inc = plain;
  inc.incremental = true;
  DiffService warm(inc);
  const DiffResponse warm_response =
      warm.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(warm_response.status.ok()) << warm_response.status.ToString();
  // The two untouched paragraphs settle wholesale.
  EXPECT_GE(warm_response.pruned_subtrees, 2u);
  EXPECT_GT(warm_response.pruned_nodes, warm_response.pruned_subtrees);
  EXPECT_FALSE(warm_response.matching_cache_hit);  // First sighting.
  EXPECT_EQ(warm_response.operations, cold_response.operations);

  // Cumulative prune metrics are exported.
  EXPECT_GE(warm.metrics().counter("diff_prune_subtrees_total")->Value(),
            warm_response.pruned_subtrees);
  EXPECT_GE(warm.metrics().counter("diff_prune_nodes_total")->Value(),
            warm_response.pruned_nodes);
}

TEST(IncrementalServiceTest, RepeatRequestHitsTheMatchingCache) {
  DiffServiceOptions options;
  options.num_threads = 2;
  options.incremental = true;
  DiffService service(options);

  const DiffResponse first = service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.matching_cache_hit);

  const DiffResponse second =
      service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.matching_cache_hit);
  // Byte-identical serving: a hit returns the script the miss produced.
  EXPECT_EQ(second.script, first.script);
  EXPECT_EQ(second.operations, first.operations);
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            1u);
}

TEST(IncrementalServiceTest, BudgetedRequestsBypassTheMatchingCache) {
  DiffServiceOptions options;
  options.num_threads = 2;
  options.incremental = true;
  DiffService service(options);

  DiffRequest budgeted = InlineRequest(kBase, kEdited);
  budgeted.node_cap = 1u << 20;  // Generous, but budgeted is budgeted.
  const DiffResponse first = service.SubmitSync(budgeted);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.matching_cache_hit);

  DiffRequest again = InlineRequest(kBase, kEdited);
  again.node_cap = 1u << 20;
  const DiffResponse second = service.SubmitSync(again);
  ASSERT_TRUE(second.status.ok());
  // A budgeted run may degrade, so its result is neither stored nor
  // reused — correctness over cleverness.
  EXPECT_FALSE(second.matching_cache_hit);
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            0u);
}

TEST(IncrementalServiceTest, AdjacentVersionDiffServesFromTheChainLog) {
  DiffServiceOptions options;
  options.num_threads = 2;
  options.incremental = true;
  DiffService service(options);

  ASSERT_TRUE(service.CreateStore("doc", kBase).ok());
  const StatusOr<int> v1 = service.CommitVersion("doc", kEdited);
  ASSERT_TRUE(v1.ok());
  ASSERT_EQ(*v1, 1);

  // The authoritative answer, computed by the pipeline with the chain log
  // bypassed (incremental off).
  DiffServiceOptions plain;
  plain.num_threads = 2;
  DiffService cold(plain);
  ASSERT_TRUE(cold.CreateStore("doc", kBase).ok());
  ASSERT_TRUE(cold.CommitVersion("doc", kEdited).ok());
  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 1;
  const DiffResponse pipeline = cold.SubmitSync(request);
  ASSERT_TRUE(pipeline.status.ok()) << pipeline.status.ToString();
  EXPECT_FALSE(pipeline.chain_log_hit);

  const DiffResponse logged = service.SubmitSync(request);
  ASSERT_TRUE(logged.status.ok()) << logged.status.ToString();
  EXPECT_TRUE(logged.chain_log_hit);
  // The stored delta IS the diff the pipeline computed at commit time.
  EXPECT_EQ(logged.script, pipeline.script);
  EXPECT_EQ(logged.operations, pipeline.operations);
  EXPECT_EQ(service.metrics().counter("diff_chain_log_hits_total")->Value(),
            1u);

  // Non-adjacent requests fall through to the pipeline.
  ASSERT_TRUE(service.CommitVersion("doc", kBase).ok());
  DiffRequest skip;
  skip.doc_id = "doc";
  skip.from_version = 0;
  skip.to_version = 2;
  const DiffResponse wide = service.SubmitSync(skip);
  ASSERT_TRUE(wide.status.ok()) << wide.status.ToString();
  EXPECT_FALSE(wide.chain_log_hit);
}

TEST(IncrementalServiceTest, ConcurrentIncrementalSubmitsStayConsistent) {
  DiffServiceOptions options;
  options.num_threads = 4;
  options.incremental = true;
  options.matching_cache_entries = 8;
  DiffService service(options);
  // Pin label ids so concurrent first-touch interning cannot reorder them.
  (void)service.SubmitSync(InlineRequest(kBase, kBase));

  ASSERT_TRUE(service.CreateStore("doc", kBase).ok());
  ASSERT_TRUE(service.CommitVersion("doc", kEdited).ok());

  const DiffResponse expected =
      service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(expected.status.ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        DiffResponse r;
        if (i % 2 == 0) {
          r = service.SubmitSync(InlineRequest(kBase, kEdited));
          if (!r.status.ok() || r.script != expected.script) ++failures[t];
        } else {
          DiffRequest request;
          request.doc_id = "doc";
          request.from_version = 0;
          request.to_version = 1;
          r = service.SubmitSync(request);
          if (!r.status.ok() || !r.chain_log_hit) ++failures[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  // Every inline pair after the first should have hit the matching cache.
  EXPECT_GE(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            static_cast<uint64_t>(kThreads * kPerThread / 2 - kThreads));
}

// ----- Conformance: every answer path serves a correct script -----

/// A seeded §8 version chain as s-expression text: a generated document,
/// then each version a few simulated edits (the default §8 mix plus
/// section moves) on the one before.
std::vector<std::string> SeededChain(uint64_t seed, int versions) {
  Vocabulary vocab(300, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = 2 + static_cast<int>(seed % 3);
  EditMix mix;
  mix.move_section = 0.1;
  Tree tree = GenerateDocument(params, vocab, &rng,
                               std::make_shared<LabelTable>());
  std::vector<std::string> chain{tree.ToDebugString()};
  for (int v = 1; v < versions; ++v) {
    SimulatedVersion next = SimulateNewVersion(
        tree, 1 + static_cast<int>((seed + v) % 6), mix, vocab, &rng);
    tree = std::move(next.new_tree);
    chain.push_back(tree.ToDebugString());
  }
  return chain;
}

/// The paper's correctness property: `script`, applied to T1, yields a
/// tree isomorphic to T2. `labels` is the table both trees use.
::testing::AssertionResult Transforms(const std::string& script,
                                      const Tree& t1, const Tree& t2,
                                      LabelTable* labels) {
  StatusOr<EditScript> parsed = ParseEditScript(script, labels);
  if (!parsed.ok()) {
    return ::testing::AssertionFailure() << parsed.status().ToString();
  }
  Tree work = t1.Clone();
  const Status applied = parsed->ApplyTo(&work);
  if (!applied.ok()) {
    return ::testing::AssertionFailure() << applied.ToString();
  }
  if (!Tree::Isomorphic(work, t2)) {
    return ::testing::AssertionFailure() << "result is not isomorphic to T2";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult InlineTransforms(const std::string& script,
                                            const std::string& old_doc,
                                            const std::string& new_doc) {
  auto labels = std::make_shared<LabelTable>();
  StatusOr<Tree> t1 = ParseSexpr(old_doc, labels);
  StatusOr<Tree> t2 = ParseSexpr(new_doc, labels);
  if (!t1.ok() || !t2.ok()) {
    return ::testing::AssertionFailure() << "fixture does not parse";
  }
  return Transforms(script, *t1, *t2, labels.get());
}

DiffRequest StoredRequest(const std::string& doc_id, int from, int to) {
  DiffRequest request;
  request.doc_id = doc_id;
  request.from_version = from;
  request.to_version = to;
  return request;
}

TEST(IncrementalServiceTest, EveryAnswerPathServesAScriptThatTransforms) {
  DiffServiceOptions options;
  options.num_threads = 2;
  options.incremental = true;
  DiffService service(options);
  net::NetServer server(&service, net::NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  net::SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<std::string> v = SeededChain(seed, 4);

    // Inline: a fresh run, then the same pair from the result cache.
    const DiffResponse miss = service.SubmitSync(InlineRequest(v[0], v[1]));
    ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
    EXPECT_FALSE(miss.matching_cache_hit);
    EXPECT_TRUE(InlineTransforms(miss.script, v[0], v[1]));
    const DiffResponse hit = service.SubmitSync(InlineRequest(v[0], v[1]));
    ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
    EXPECT_TRUE(hit.matching_cache_hit);
    EXPECT_EQ(hit.script, miss.script);
    EXPECT_EQ(hit.operations, miss.operations);
    EXPECT_EQ(hit.rung, miss.rung);
    // Same old document, different new one: not the cached answer.
    const DiffResponse sibling =
        service.SubmitSync(InlineRequest(v[0], v[2]));
    ASSERT_TRUE(sibling.status.ok()) << sibling.status.ToString();
    EXPECT_FALSE(sibling.matching_cache_hit);
    EXPECT_TRUE(InlineTransforms(sibling.script, v[0], v[2]));

    // Over the wire: a pair the service has not seen (a fresh run), then
    // the cached one; both must carry the in-process bytes.
    for (int from : {1, 0}) {
      net::WireResponse wire;
      ASSERT_TRUE(client.Diff(v[from], v[from + 1], net::kFormatSexpr, &wire)
                      .ok());
      ASSERT_TRUE(wire.ok()) << wire.payload;
      EXPECT_EQ((wire.flags & net::kRespFlagMatchCache) != 0, from == 0);
      EXPECT_TRUE(InlineTransforms(wire.payload, v[from], v[from + 1]));
      const DiffResponse direct =
          service.SubmitSync(InlineRequest(v[from], v[from + 1]));
      EXPECT_EQ(wire.payload, direct.script);
      EXPECT_EQ(wire.value, static_cast<uint32_t>(direct.operations));
    }

    // Stored: the same chain committed to a service store, and mirrored
    // into a local store to materialise the trees the scripts address.
    const std::string doc = "doc" + std::to_string(seed);
    ASSERT_TRUE(service.CreateStore(doc, v[0]).ok());
    auto labels = std::make_shared<LabelTable>();
    VersionStore mirror(*ParseSexpr(v[0], labels));
    for (size_t i = 1; i < v.size(); ++i) {
      ASSERT_TRUE(service.CommitVersion(doc, v[i]).ok());
      ASSERT_TRUE(mirror.Commit(*ParseSexpr(v[i], labels)).ok());
    }
    auto version = [&](int i) { return *mirror.Materialize(i); };

    const DiffResponse logged = service.SubmitSync(StoredRequest(doc, 1, 2));
    ASSERT_TRUE(logged.status.ok()) << logged.status.ToString();
    EXPECT_TRUE(logged.chain_log_hit);
    EXPECT_TRUE(Transforms(logged.script, version(1), version(2),
                           labels.get()));

    const DiffResponse wide = service.SubmitSync(StoredRequest(doc, 0, 3));
    ASSERT_TRUE(wide.status.ok()) << wide.status.ToString();
    EXPECT_FALSE(wide.chain_log_hit);
    EXPECT_FALSE(wide.matching_cache_hit);
    EXPECT_TRUE(Transforms(wide.script, version(0), version(3),
                           labels.get()));
    net::WireResponse wire;
    ASSERT_TRUE(client.Vdiff(doc, 0, 3, &wire).ok());
    ASSERT_TRUE(wire.ok()) << wire.payload;
    EXPECT_NE(wire.flags & net::kRespFlagMatchCache, 0);
    EXPECT_EQ(wire.payload, wide.script);
    EXPECT_EQ(wire.value, static_cast<uint32_t>(wide.operations));
    // Same from-version, different to-version: not the cached answer.
    const DiffResponse narrower = service.SubmitSync(StoredRequest(doc, 0, 2));
    ASSERT_TRUE(narrower.status.ok()) << narrower.status.ToString();
    EXPECT_FALSE(narrower.matching_cache_hit);
    EXPECT_TRUE(Transforms(narrower.script, version(0), version(2),
                           labels.get()));
  }
}

TEST(IncrementalServiceTest, BudgetedAndDegradedRunsAreNeverCached) {
  DiffServiceOptions options;
  options.num_threads = 1;
  options.incremental = true;
  DiffService service(options);
  const std::vector<std::string> v = SeededChain(11, 2);

  // A node cap of one node forces the ladder down: a correct but degraded
  // script, which must not be served to a later unbudgeted request.
  DiffRequest degrading = InlineRequest(v[0], v[1]);
  degrading.node_cap = 1;
  const DiffResponse degraded = service.SubmitSync(degrading);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(InlineTransforms(degraded.script, v[0], v[1]));

  DiffRequest budgeted = InlineRequest(v[0], v[1]);
  budgeted.deadline_seconds = 60;  // Generous, but budgeted is budgeted.
  const DiffResponse full_budgeted = service.SubmitSync(budgeted);
  ASSERT_TRUE(full_budgeted.status.ok());
  EXPECT_FALSE(full_budgeted.degraded);
  EXPECT_FALSE(full_budgeted.matching_cache_hit);

  const DiffResponse first = service.SubmitSync(InlineRequest(v[0], v[1]));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.matching_cache_hit);  // Neither run above was stored.
  EXPECT_EQ(first.script, full_budgeted.script);
  const DiffResponse second = service.SubmitSync(InlineRequest(v[0], v[1]));
  EXPECT_TRUE(second.matching_cache_hit);
  EXPECT_EQ(second.script, first.script);

  // Budgeted requests do not read the cache either.
  EXPECT_FALSE(service.SubmitSync(budgeted).matching_cache_hit);
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            1u);
}

TEST(IncrementalServiceTest, ResultCacheHoldsAtMostItsCapacity) {
  DiffServiceOptions options;
  options.num_threads = 1;
  options.incremental = true;
  options.matching_cache_entries = 2;
  DiffService service(options);
  const std::vector<std::string> v = SeededChain(12, 4);
  auto submit = [&](int from) {
    const DiffResponse r =
        service.SubmitSync(InlineRequest(v[from], v[from + 1]));
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(InlineTransforms(r.script, v[from], v[from + 1]));
    return r.matching_cache_hit;
  };
  // Three distinct pairs through a two-entry cache: the oldest is evicted.
  EXPECT_FALSE(submit(0));
  EXPECT_FALSE(submit(1));
  EXPECT_FALSE(submit(2));
  EXPECT_TRUE(submit(2));
  EXPECT_TRUE(submit(1));
  EXPECT_FALSE(submit(0));  // Evicted; re-storing it evicts pair 2.
  EXPECT_TRUE(submit(1));
  EXPECT_FALSE(submit(2));
}

}  // namespace
}  // namespace treediff
