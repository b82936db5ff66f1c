#include "service/diff_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/script_io.h"
#include "doc/xml.h"
#include "tree/builder.h"
#include "util/io.h"

namespace treediff {

namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The lower (cheaper) of two ladder rungs. Rungs are ordered best-first,
/// so "lower on the ladder" is the numerically larger enum value.
DiffRung LowerRung(DiffRung a, DiffRung b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/// Errors that say the store itself is sick. Requests for things that do
/// not exist (kNotFound/kOutOfRange), unparseable documents, and versions
/// permanently lost to a salvage hole (kDataLoss) are answered correctly
/// by a healthy store, so they never move the breaker.
bool CountsTowardBreaker(const Status& status) {
  switch (status.code()) {
    case Code::kNotFound:
    case Code::kOutOfRange:
    case Code::kInvalidArgument:
    case Code::kParseError:
    case Code::kDataLoss:
      return false;
    default:
      return true;
  }
}

Status AlreadyAttached(const std::string& doc_id) {
  return Status::FailedPrecondition("doc_id \"" + doc_id +
                                    "\" already attached");
}

}  // namespace

const char* StoreHealthName(StoreHealth health) {
  switch (health) {
    case StoreHealth::kHealthy:
      return "healthy";
    case StoreHealth::kDegraded:
      return "degraded";
    case StoreHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

DiffService::DiffService(DiffServiceOptions options)
    : options_(options),
      cache_(TreeCache::Options{options.cache_capacity_bytes,
                                options.cache_shards}),
      pool_(ThreadPool::Options{std::max(options.num_threads, 1),
                                std::max<size_t>(options.queue_capacity, 1)}) {
  requests_ = metrics_.counter("diff_requests_total");
  responses_ok_ = metrics_.counter("diff_responses_ok_total");
  responses_error_ = metrics_.counter("diff_responses_error_total");
  shed_queue_full_ = metrics_.counter("diff_shed_queue_full_total");
  shed_deadline_ = metrics_.counter("diff_shed_queue_deadline_total");
  shed_degraded_ = metrics_.counter("diff_admitted_degraded_total");
  cache_hits_ = metrics_.counter("tree_cache_hits_total");
  cache_misses_ = metrics_.counter("tree_cache_misses_total");
  for (int r = 0; r < 4; ++r) {
    rung_counters_[r] = metrics_.counter(
        std::string("diff_rung_total{rung=\"") +
        DiffRungName(static_cast<DiffRung>(r)) + "\"}");
  }
  prune_subtrees_ = metrics_.counter("diff_prune_subtrees_total");
  prune_nodes_ = metrics_.counter("diff_prune_nodes_total");
  prune_collisions_ = metrics_.counter("diff_prune_collisions_total");
  match_cache_hits_ = metrics_.counter("diff_match_cache_hits_total");
  match_cache_misses_ = metrics_.counter("diff_match_cache_misses_total");
  chain_log_hits_ = metrics_.counter("diff_chain_log_hits_total");
  breaker_trips_ = metrics_.counter("store_breaker_trips_total");
  breaker_fast_fails_ = metrics_.counter("store_breaker_fast_fails_total");
  store_repairs_ = metrics_.counter("store_repairs_total");
  store_failovers_ = metrics_.counter("store_failovers_total");
  scrub_runs_ = metrics_.counter("store_scrub_runs_total");
  scrub_corruption_found_ = metrics_.counter("store_scrub_corruption_total");
  queue_wait_h_ = metrics_.histogram("diff_queue_wait_seconds");
  resolve_h_ = metrics_.histogram("diff_resolve_seconds");
  match_h_ = metrics_.histogram("diff_match_seconds");
  gen_h_ = metrics_.histogram("diff_gen_seconds");
  e2e_h_ = metrics_.histogram("diff_e2e_seconds");
  commit_h_ = metrics_.histogram("store_commit_seconds");

  if (options_.scrub_interval_seconds > 0.0) {
    scrubber_ = std::thread([this] { ScrubLoop(); });
  }
}

DiffService::~DiffService() { Shutdown(); }

void DiffService::Shutdown() {
  {
    MutexLock lock(&scrub_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.SignalAll();
  if (scrubber_.joinable()) scrubber_.join();
  pool_.Shutdown();
}

void DiffService::ScrubLoop() {
  for (;;) {
    {
      MutexLock lock(&scrub_mu_);
      if (!scrub_stop_) {
        scrub_cv_.WaitFor(&scrub_mu_, options_.scrub_interval_seconds);
      }
      if (scrub_stop_) return;
    }
    // Scrub outside scrub_mu_ so Shutdown never waits on store I/O.
    ScrubNow();
  }
}

int DiffService::ScrubNow() {
  // Snapshot the registry first: entries are never removed, so the
  // pointers stay valid after the lock drops, and the slow per-store work
  // does not hold the registry lock against attaches and lookups.
  std::vector<StoreEntry*> entries;
  {
    ReaderMutexLock lock(&stores_mu_);
    entries.reserve(stores_.size());
    for (const auto& [id, entry] : stores_) entries.push_back(entry.get());
  }
  int scrubbed = 0;
  for (StoreEntry* entry : entries) {
    if (entry->replicated != nullptr) {
      // The group scrubs the primary's log *and* re-verifies every
      // follower's CRC chain (divergence detection + resync).
      entry->replicated->Scrub().IgnoreError();
      scrub_runs_->Increment();
      ++scrubbed;
      continue;
    }
    MutexLock lock(&entry->mu);
    if (!entry->store->durable()) continue;
    const StatusOr<ScrubReport> report = entry->store->Scrub();
    scrub_runs_->Increment();
    ++scrubbed;
    if (report.ok() && report->corruption_found) {
      scrub_corruption_found_->Increment();
    }
  }
  return scrubbed;
}

std::vector<DiffService::StoreStatus> DiffService::StoreStatuses() {
  std::vector<std::pair<std::string, StoreEntry*>> entries;
  {
    ReaderMutexLock lock(&stores_mu_);
    entries.reserve(stores_.size());
    for (const auto& [id, entry] : stores_) {
      entries.emplace_back(id, entry.get());
    }
  }
  std::vector<StoreStatus> statuses;
  statuses.reserve(entries.size());
  for (const auto& [id, entry] : entries) {
    StoreStatus status;
    status.doc_id = id;
    {
      MutexLock lock(&entry->mu);
      status.versions = entry->store->VersionCount();
      status.durable = entry->store->durable();
      status.faults = entry->store->fault_counters();
      status.health = entry->health;
      status.consecutive_failures = entry->consecutive_failures;
    }
    if (entry->replicated != nullptr) {
      status.replicated = true;
      status.repl_epoch = entry->replicated->epoch();
      status.repl_primary = entry->replicated->primary_index();
      status.replicas = entry->replicated->Replicas();
    }
    statuses.push_back(std::move(status));
  }
  return statuses;
}

Status DiffService::GuardedStoreOp(
    StoreEntry* entry, const std::function<Status(VersionStore*)>& op) {
  MutexLock lock(&entry->mu);
  if (entry->health == StoreHealth::kQuarantined) {
    if (Clock::now() < entry->quarantined_until) {
      breaker_fast_fails_->Increment();
      return Status::Unavailable(
          "store quarantined by circuit breaker; retry after cooldown");
    }
    // Cooldown over: fall through and let this request probe (half-open).
  }

  // One run. Transient faults were already retried under the store's own
  // RetryPolicy; re-running here would repeat work the store may have made
  // durable (a quorum-timed-out commit is on the primary's log).
  Status last = op(entry->store);
  if (last.code() == Code::kFailedPrecondition && entry->store->durable()) {
    // The store poisoned itself after an I/O failure. Heal it by rotation
    // and re-run the operation once on the fresh log; no acknowledged
    // commit is lost (the in-memory state is the acknowledged state).
    store_repairs_->Increment();
    last = entry->store->Repair();
    if (last.ok()) last = op(entry->store);
  }

  if (last.ok()) {
    entry->consecutive_failures = 0;
    entry->health = StoreHealth::kHealthy;
  } else if (CountsTowardBreaker(last)) {
    ++entry->consecutive_failures;
    if (entry->consecutive_failures >=
        std::max(options_.breaker_failure_threshold, 1)) {
      // A replicated entry has a stronger recovery rung than quarantine:
      // fail away from the sick primary. Promote the most-caught-up
      // follower (fenced: the epoch bump invalidates the deposed
      // primary's leases) and probe the new primary with the same op.
      if (entry->replicated != nullptr &&
          entry->replicated->Promote().ok()) {
        store_failovers_->Increment();
        entry->primary_holder = entry->replicated->primary();
        entry->store = entry->primary_holder.get();
        entry->consecutive_failures = 0;
        last = op(entry->store);
        if (last.ok()) {
          entry->health = StoreHealth::kHealthy;
          return last;
        }
        ++entry->consecutive_failures;  // New primary is failing too.
      }
      entry->health = StoreHealth::kQuarantined;
      entry->quarantined_until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options_.breaker_cooldown_seconds));
      breaker_trips_->Increment();
    } else {
      entry->health = StoreHealth::kDegraded;
    }
  }
  return last;
}

void DiffService::Submit(DiffRequest request,
                         std::function<void(DiffResponse)> done) {
  requests_->Increment();
  const Clock::time_point submitted = Clock::now();

  // Pressure probe at admission, not at execution: the decision must be
  // based on how much work is queued ahead of this request.
  bool shed_degraded = false;
  if (options_.degrade_queue_fraction <= 1.0) {
    const size_t depth = pool_.QueueDepth();
    const double fraction =
        static_cast<double>(depth) /
        static_cast<double>(pool_.queue_capacity());
    shed_degraded = fraction >= options_.degrade_queue_fraction;
  }

  // Shared, not moved into the lambda directly: the shed path below still
  // needs the callback when TrySubmit declines the closure.
  auto done_ptr =
      std::make_shared<std::function<void(DiffResponse)>>(std::move(done));

  const bool admitted = pool_.TrySubmit(
      [this, done_ptr, request = std::move(request), submitted,
       shed_degraded]() mutable {
        (*done_ptr)(Process(request, submitted, shed_degraded));
      });
  if (!admitted) {
    shed_queue_full_->Increment();
    responses_error_->Increment();
    DiffResponse shed;
    shed.status =
        Status::ResourceExhausted("request queue full: request shed");
    shed.total_seconds = Seconds(Clock::now() - submitted);
    (*done_ptr)(std::move(shed));
  }
}

std::future<DiffResponse> DiffService::Submit(DiffRequest request) {
  auto promise = std::make_shared<std::promise<DiffResponse>>();
  std::future<DiffResponse> future = promise->get_future();
  Submit(std::move(request), [promise](DiffResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

DiffResponse DiffService::SubmitSync(DiffRequest request) {
  return Submit(std::move(request)).get();
}

std::shared_ptr<const DiffService::CachedResult> DiffService::LookupResult(
    uint64_t key_old, uint64_t key_new, DiffRung rung) {
  MutexLock lock(&result_cache_mu_);
  for (auto it = result_cache_.begin(); it != result_cache_.end(); ++it) {
    if (it->key_old == key_old && it->key_new == key_new &&
        it->rung == rung) {
      result_cache_.splice(result_cache_.begin(), result_cache_, it);
      return result_cache_.front().result;
    }
  }
  return nullptr;
}

void DiffService::StoreResult(uint64_t key_old, uint64_t key_new,
                              DiffRung rung,
                              std::shared_ptr<const CachedResult> result) {
  MutexLock lock(&result_cache_mu_);
  for (const ResultCacheSlot& slot : result_cache_) {
    if (slot.key_old == key_old && slot.key_new == key_new &&
        slot.rung == rung) {
      return;  // A concurrent request published the same result first.
    }
  }
  result_cache_.push_front({key_old, key_new, rung, std::move(result)});
  const size_t cap = std::max<size_t>(options_.matching_cache_entries, 1);
  while (result_cache_.size() > cap) result_cache_.pop_back();
}

bool DiffService::ServeFromChainLog(const DiffRequest& request,
                                    DiffResponse* response) {
  if (request.doc_id.empty() || request.from_version < 0 ||
      request.to_version != request.from_version + 1) {
    return false;
  }
  StoreEntry* entry = FindStore(request.doc_id);
  if (entry == nullptr) return false;  // Normal path reports kNotFound.

  // The delta that takes from_version to to_version is exactly what the
  // store replays inside Materialize, so answering with it skips resolve,
  // matching, and generation outright. The script must be copied out (and
  // formatted) under the store lock: the DeltaFor pointer dangles across
  // the next Commit/RollbackHead.
  bool served = false;
  size_t operations = 0;
  std::string text;
  const Status status = GuardedStoreOp(entry, [&](VersionStore* store) {
    const EditScript* delta = store->DeltaFor(request.to_version);
    if (delta == nullptr) return Status::Ok();  // Fall through below.
    operations = delta->size();
    if (request.want_script_text) {
      text = FormatEditScript(*delta, *store->label_table());
    }
    served = true;
    return Status::Ok();
  });
  if (!status.ok() || !served) return false;

  response->operations = operations;
  response->script = std::move(text);
  response->chain_log_hit = true;
  chain_log_hits_->Increment();
  return true;
}

DiffResponse DiffService::Process(const DiffRequest& request,
                                  Clock::time_point submitted,
                                  bool shed_degraded) {
  DiffResponse response;
  response.shed_degraded = shed_degraded;
  if (shed_degraded) shed_degraded_->Increment();

  const Clock::time_point started = Clock::now();
  response.queue_seconds = Seconds(started - submitted);
  queue_wait_h_->Observe(response.queue_seconds);

  auto finish = [&](DiffResponse&& r) {
    r.total_seconds = Seconds(Clock::now() - submitted);
    e2e_h_->Observe(r.total_seconds);
    if (r.status.ok()) {
      responses_ok_->Increment();
    } else {
      responses_error_->Increment();
    }
    return std::move(r);
  };

  // Per-request budget. The deadline is end-to-end: time burned waiting in
  // the queue comes off the pipeline's allowance, and a request that aged
  // out entirely while queued is shed before any work is done on it.
  const double deadline = request.deadline_seconds > 0.0
                              ? request.deadline_seconds
                              : options_.default_deadline_seconds;
  const size_t node_cap =
      request.node_cap > 0 ? request.node_cap : options_.default_node_cap;
  Budget budget;
  bool budgeted = false;
  if (deadline > 0.0) {
    const double remaining = deadline - response.queue_seconds;
    if (remaining <= 0.0) {
      shed_deadline_->Increment();
      response.status = Status::DeadlineExceeded(
          "deadline expired while queued: request shed");
      return finish(std::move(response));
    }
    budget.set_deadline_seconds(remaining);
    budgeted = true;
  }
  if (node_cap > 0) {
    budget.set_node_cap(node_cap);
    budgeted = true;
  }

  // Incremental chain path: an adjacent stored-mode request is answered
  // from the commit log without resolving, matching, or generating.
  if (options_.incremental && ServeFromChainLog(request, &response)) {
    return finish(std::move(response));
  }

  // Resolve both documents through the tree cache.
  const Clock::time_point resolve_start = Clock::now();
  StatusOr<std::shared_ptr<const CachedTree>> old_entry = [&] {
    return request.doc_id.empty()
               ? ResolveInline(request.old_doc, request.format,
                               &response.cache_hit_old)
               : ResolveVersion(request.doc_id, request.from_version,
                                &response.cache_hit_old);
  }();
  if (!old_entry.ok()) {
    response.status = old_entry.status();
    return finish(std::move(response));
  }
  StatusOr<std::shared_ptr<const CachedTree>> new_entry = [&] {
    return request.doc_id.empty()
               ? ResolveInline(request.new_doc, request.format,
                               &response.cache_hit_new)
               : ResolveVersion(request.doc_id, request.to_version,
                                &response.cache_hit_new);
  }();
  if (!new_entry.ok()) {
    response.status = new_entry.status();
    return finish(std::move(response));
  }
  response.resolve_seconds = Seconds(Clock::now() - resolve_start);
  resolve_h_->Observe(response.resolve_seconds);

  const CachedTree& old_cached = **old_entry;
  const CachedTree& new_cached = **new_entry;

  DiffRung start_rung = request.start_rung;
  if (shed_degraded) {
    start_rung = LowerRung(start_rung, options_.degraded_start_rung);
  }

  // Result reuse: only for unbudgeted requests (a budget can stop the
  // pipeline anywhere, so only a full, deterministic run is cacheable),
  // keyed by the content fingerprints of both trees plus the effective
  // starting rung. An unbudgeted run never steps down the ladder, so the
  // answer's rung is the starting rung.
  const bool cacheable = options_.incremental && !budgeted;
  if (cacheable) {
    if (std::shared_ptr<const CachedResult> hit =
            LookupResult(old_cached.key, new_cached.key, start_rung)) {
      match_cache_hits_->Increment();
      response.matching_cache_hit = true;
      response.rung = start_rung;
      response.operations = hit->operations;
      if (request.want_script_text) response.script = hit->script;
      rung_counters_[static_cast<int>(response.rung)]->Increment();
      return finish(std::move(response));
    }
    match_cache_misses_->Increment();
  }

  DiffOptions diff = options_.diff;
  diff.budget = budgeted ? &budget : nullptr;
  diff.index1 = &old_cached.index;
  diff.index2 = &new_cached.index;
  diff.start_rung = start_rung;
  if (options_.incremental && diff.share_mode == ShareMode::kOff) {
    diff.share_mode = ShareMode::kIndexed;
  }

  StatusOr<DiffResult> result =
      DiffTrees(old_cached.tree, new_cached.tree, diff);
  if (!result.ok()) {
    response.status = result.status();
    return finish(std::move(response));
  }

  response.pruned_subtrees = result->report.prune_settled_subtrees;
  response.pruned_nodes = result->report.prune_settled_nodes;
  prune_subtrees_->Increment(result->report.prune_settled_subtrees);
  prune_nodes_->Increment(result->report.prune_settled_nodes);
  prune_collisions_->Increment(result->report.prune_collisions);

  response.rung = result->report.rung;
  response.degraded = result->report.degraded;
  response.operations = result->script.size();
  response.match_seconds = result->stats.match_seconds;
  response.gen_seconds = result->stats.script_seconds;
  match_h_->Observe(response.match_seconds);
  gen_h_->Observe(response.gen_seconds);
  rung_counters_[static_cast<int>(response.rung)]->Increment();

  // A cacheable run formats its script even when this request does not
  // want the text: a later request for the same pair may.
  const bool store = cacheable && !response.degraded;
  if (request.want_script_text || store) {
    std::string text =
        FormatEditScript(result->script, old_cached.tree.labels());
    if (store) {
      StoreResult(old_cached.key, new_cached.key, start_rung,
                  std::make_shared<const CachedResult>(
                      CachedResult{text, response.operations}));
    }
    if (request.want_script_text) response.script = std::move(text);
  }
  return finish(std::move(response));
}

StatusOr<Tree> DiffService::ParseDoc(const std::string& text,
                                     DiffRequest::Format format) {
  return format == DiffRequest::Format::kSexpr ? ParseSexpr(text, labels_)
                                               : ParseXml(text, labels_);
}

StatusOr<std::shared_ptr<const CachedTree>> DiffService::ResolveInline(
    const std::string& text, DiffRequest::Format format, bool* cache_hit) {
  const uint64_t key = TreeCache::FingerprintText(
      format == DiffRequest::Format::kSexpr ? "sexpr" : "xml", text);
  if (auto entry = cache_.Lookup(key)) {
    *cache_hit = true;
    cache_hits_->Increment();
    return entry;
  }
  *cache_hit = false;
  cache_misses_->Increment();
  StatusOr<Tree> tree = ParseDoc(text, format);
  if (!tree.ok()) return tree.status();
  return cache_.Insert(key, std::move(tree).value());
}

DiffService::StoreEntry* DiffService::FindStore(const std::string& doc_id) {
  ReaderMutexLock lock(&stores_mu_);
  auto it = stores_.find(doc_id);
  return it == stores_.end() ? nullptr : it->second.get();
}

StatusOr<std::shared_ptr<const CachedTree>> DiffService::ResolveVersion(
    const std::string& doc_id, int version, bool* cache_hit) {
  StoreEntry* entry = FindStore(doc_id);
  if (entry == nullptr) {
    return Status::NotFound("no store attached under doc_id \"" + doc_id +
                            "\"");
  }
  // Replicated stores salt the cache key with the group epoch: a version
  // number can be reused across a failover (a non-quorum-acked commit lost
  // with the deposed primary, then the slot recommitted under the new
  // epoch), and an unsalted key would keep serving the dead timeline.
  const uint64_t key =
      entry->replicated != nullptr
          ? TreeCache::FingerprintVersion(
                doc_id + "@e" + std::to_string(entry->replicated->epoch()),
                version)
          : TreeCache::FingerprintVersion(doc_id, version);
  if (auto cached = cache_.Lookup(key)) {
    *cache_hit = true;
    cache_hits_->Increment();
    return cached;
  }
  *cache_hit = false;
  cache_misses_->Increment();
  // Materialize through the resilience wrapper (retry / repair / breaker);
  // freezing + indexing happen inside Insert, off the store lock.
  std::optional<Tree> tree;
  const Status status = GuardedStoreOp(entry, [&](VersionStore* store) {
    if (version < 0 || version >= store->VersionCount()) {
      return Status::OutOfRange(
          "version " + std::to_string(version) + " out of range [0, " +
          std::to_string(store->VersionCount() - 1) + "] for \"" + doc_id +
          "\"");
    }
    // Replicated reads go through the group, which prefers a caught-up
    // follower within the staleness bound and falls back to the primary.
    StatusOr<Tree> materialized = entry->replicated != nullptr
                                      ? entry->replicated->Materialize(version)
                                      : store->Materialize(version);
    if (!materialized.ok()) return materialized.status();
    tree = std::move(materialized).value();
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return cache_.Insert(key, std::move(*tree));
}

Status DiffService::AttachStore(const std::string& doc_id,
                                VersionStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("AttachStore: null store");
  }
  WriterMutexLock lock(&stores_mu_);
  auto [it, inserted] = stores_.emplace(doc_id, nullptr);
  if (!inserted) {
    return AlreadyAttached(doc_id);
  }
  it->second = std::make_unique<StoreEntry>();
  it->second->store = store;
  return Status::Ok();
}

Status DiffService::CreateStore(const std::string& doc_id,
                                const std::string& base_doc,
                                DiffRequest::Format format) {
  StatusOr<Tree> base = ParseDoc(base_doc, format);
  if (!base.ok()) return base.status();
  auto owned = std::make_unique<VersionStore>(std::move(base).value(),
                                              options_.diff);
  WriterMutexLock lock(&stores_mu_);
  auto [it, inserted] = stores_.emplace(doc_id, nullptr);
  if (!inserted) {
    return AlreadyAttached(doc_id);
  }
  it->second = std::make_unique<StoreEntry>();
  it->second->store = owned.get();
  it->second->owned = std::move(owned);
  return Status::Ok();
}

StatusOr<int> DiffService::CommitVersion(const std::string& doc_id,
                                         const std::string& doc,
                                         DiffRequest::Format format) {
  StoreEntry* entry = FindStore(doc_id);
  if (entry == nullptr) {
    return Status::NotFound("no store attached under doc_id \"" + doc_id +
                            "\"");
  }
  int version = -1;
  const Clock::time_point started = Clock::now();
  const Status status = GuardedStoreOp(entry, [&](VersionStore* store) {
    // Commits must use the store's label table, which for attached stores
    // is not the service's inline table. Re-parsing on a retry is safe:
    // interning is idempotent.
    StatusOr<Tree> tree = format == DiffRequest::Format::kSexpr
                              ? ParseSexpr(doc, store->label_table())
                              : ParseXml(doc, store->label_table());
    if (!tree.ok()) return tree.status();
    // Replicated commits go through the group: a lease minted now fences
    // the write against concurrent failovers, and quorum mode blocks for
    // follower acks. Direct store->Commit would bypass both.
    StatusOr<int> committed = entry->replicated != nullptr
                                  ? entry->replicated->Commit(*tree)
                                  : store->Commit(*tree);
    if (!committed.ok()) return committed.status();
    version = *committed;
    return Status::Ok();
  });
  commit_h_->Observe(Seconds(Clock::now() - started));
  if (!status.ok()) return status;
  return version;
}

Status DiffService::AttachReplicatedStore(
    const std::string& doc_id, std::shared_ptr<ReplicatedVersionStore> group) {
  if (group == nullptr) {
    return Status::InvalidArgument("AttachReplicatedStore: null group");
  }
  auto entry = std::make_unique<StoreEntry>();
  entry->replicated = std::move(group);
  {
    MutexLock entry_lock(&entry->mu);
    entry->primary_holder = entry->replicated->primary();
    entry->store = entry->primary_holder.get();
  }
  WriterMutexLock lock(&stores_mu_);
  auto [it, inserted] = stores_.emplace(doc_id, nullptr);
  if (!inserted) {
    return AlreadyAttached(doc_id);
  }
  it->second = std::move(entry);
  return Status::Ok();
}

Status DiffService::CreateReplicatedStore(const std::string& doc_id,
                                          const std::string& base_doc,
                                          std::vector<ReplicaConfig> replicas,
                                          AckMode ack_mode,
                                          DiffRequest::Format format) {
  // Refuse an attached id before Create writes the primary's log: a log
  // left behind would make every later create of this id fail.
  if (FindStore(doc_id) != nullptr) return AlreadyAttached(doc_id);
  StatusOr<Tree> base = ParseDoc(base_doc, format);
  if (!base.ok()) return base.status();
  // The logs this call creates, in case a concurrent attach of the same id
  // wins the race below.
  std::vector<std::pair<Env*, std::string>> created;
  for (const ReplicaConfig& replica : replicas) {
    Env* env = replica.env != nullptr ? replica.env : Env::Default();
    if (!env->FileExists(replica.path)) created.emplace_back(env, replica.path);
  }
  ReplicationOptions repl;
  repl.ack_mode = ack_mode;
  repl.metrics = &metrics_;
  repl.store_options.metrics = &metrics_;
  repl.store_options.sleep = options_.sleep;
  auto group = ReplicatedVersionStore::Create(
      std::move(replicas), std::move(base).value(), options_.diff, repl);
  if (!group.ok()) return group.status();
  const Status attached = AttachReplicatedStore(
      doc_id, std::shared_ptr<ReplicatedVersionStore>(std::move(*group)));
  if (!attached.ok()) {
    // The refused group is destroyed (its shipper joined), so no thread
    // writes these logs any more.
    for (const auto& [env, path] : created) {
      if (env->FileExists(path)) env->DeleteFile(path).IgnoreError();
    }
  }
  return attached;
}

}  // namespace treediff
