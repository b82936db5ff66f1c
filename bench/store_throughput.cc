// Commit and recovery throughput of the durable VersionStore over the
// Section 8 synthetic workload: a generated document evolved by random edit
// batches, committed through the checksummed commit log, then recovered
// with VersionStore::Open. The store runs against the real POSIX Env — the
// fault-injection machinery lives in a test-only library and is not linked
// here, so these numbers are the release path.
//
// Exits 1 unless every reopened version materializes isomorphic to the
// snapshot that was committed as that version (CI runs it as a smoke test).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "store/version_store.h"
#include "tree/tree.h"
#include "util/random.h"
#include "util/table.h"

int main() {
  using namespace treediff;
  namespace fs = std::filesystem;
  using Clock = std::chrono::steady_clock;

  const fs::path dir = fs::temp_directory_path() / "treediff_store_bench";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::printf(
      "Durable VersionStore throughput (POSIX env, fsync per commit)\n"
      "Workload: Section 8 synthetic documents, 4 random edits per commit\n\n");

  TablePrinter table({"doc nodes", "commits", "ckpt every", "commit/s",
                      "log KiB", "recover ms", "replayed"});

  Rng rng(4242);
  Vocabulary vocab(800, 1.0);
  int run = 0;
  for (int sections : {3, 8}) {
    for (int checkpoint_interval : {0, 8}) {
      auto labels = std::make_shared<LabelTable>();
      DocGenParams params;
      params.sections = sections;
      Tree base = GenerateDocument(params, vocab, &rng, labels);
      const size_t doc_nodes = base.size();

      const std::string path =
          (dir / ("store" + std::to_string(run++) + ".log")).string();
      StoreOptions store_options;
      store_options.checkpoint_interval = checkpoint_interval;

      const int kCommits = 64;
      std::vector<Tree> snapshots;
      snapshots.push_back(base.Clone());
      Tree current = base.Clone();
      auto t0 = Clock::now();
      auto store =
          VersionStore::Create(path, base.Clone(), {}, store_options);
      if (!store.ok()) {
        std::printf("Create failed: %s\n", store.status().ToString().c_str());
        return 1;
      }
      for (int i = 0; i < kCommits; ++i) {
        SimulatedVersion next =
            SimulateNewVersion(current, 4, {}, vocab, &rng);
        auto v = store->Commit(next.new_tree);
        if (!v.ok()) {
          std::printf("Commit failed: %s\n", v.status().ToString().c_str());
          return 1;
        }
        snapshots.push_back(next.new_tree.Clone());
        current = std::move(next.new_tree);
      }
      auto t1 = Clock::now();
      const double commit_s =
          std::chrono::duration<double>(t1 - t0).count();

      const auto log_bytes = fs::file_size(path);

      // Recovery: average of a few reopens (the log is cold only once).
      RecoveryReport report;
      const int kReopens = 5;
      StatusOr<VersionStore> reopened = Status::Internal("never opened");
      auto t2 = Clock::now();
      for (int i = 0; i < kReopens; ++i) {
        reopened = VersionStore::Open(path, {}, store_options, &report);
        if (!reopened.ok()) {
          std::printf("Open failed: %s\n",
                      reopened.status().ToString().c_str());
          return 1;
        }
        if (reopened->VersionCount() != kCommits + 1) {
          std::printf("recovered %d versions, expected %d\n",
                      reopened->VersionCount(), kCommits + 1);
          return 1;
        }
      }
      auto t3 = Clock::now();
      const double recover_ms =
          std::chrono::duration<double, std::milli>(t3 - t2).count() /
          kReopens;

      // Untimed: what was recovered must be what was committed.
      for (int v = 0; v <= kCommits; ++v) {
        StatusOr<Tree> tree = reopened->Materialize(v);
        if (!tree.ok() ||
            !Tree::Isomorphic(*tree, snapshots[static_cast<size_t>(v)])) {
          std::printf("recovered version %d differs from its commit: %s\n",
                      v,
                      tree.ok() ? "not isomorphic"
                                : tree.status().ToString().c_str());
          return 1;
        }
      }

      char commit_rate[32], log_kib[32], rec[32];
      std::snprintf(commit_rate, sizeof commit_rate, "%.0f",
                    kCommits / commit_s);
      std::snprintf(log_kib, sizeof log_kib, "%.1f",
                    static_cast<double>(log_bytes) / 1024.0);
      std::snprintf(rec, sizeof rec, "%.2f", recover_ms);
      table.AddRow({std::to_string(doc_nodes), std::to_string(kCommits),
                    checkpoint_interval == 0
                        ? "off"
                        : std::to_string(checkpoint_interval),
                    commit_rate, log_kib, rec,
                    std::to_string(report.deltas_replayed)});
    }
  }
  table.Print();
  std::printf(
      "\n'replayed' = deltas applied on Open to rebuild the head;\n"
      "checkpoints bound it at the cost of snapshot records in the log.\n");

  fs::remove_all(dir);
  return 0;
}
