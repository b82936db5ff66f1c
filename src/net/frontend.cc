#include "net/frontend.h"

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

namespace treediff {
namespace net {

DiffRequest::Format Frontend::ToFormat(uint8_t wire_format) {
  return wire_format == kFormatXml ? DiffRequest::Format::kXml
                                   : DiffRequest::Format::kSexpr;
}

WireResponse Frontend::ErrorResponse(const WireRequest& request,
                                     const Status& status) {
  WireResponse response;
  response.opcode = request.opcode;
  response.request_id = request.request_id;
  response.status = static_cast<uint8_t>(status.code());
  response.payload = status.message();
  return response;
}

WireResponse Frontend::FromDiffResponse(const WireRequest& request,
                                        const DiffResponse& diff) {
  if (!diff.status.ok()) return ErrorResponse(request, diff.status);
  WireResponse response;
  response.opcode = request.opcode;
  response.request_id = request.request_id;
  response.rung = static_cast<uint8_t>(diff.rung);
  response.value = static_cast<uint32_t>(diff.operations);
  response.aux = static_cast<uint32_t>(diff.pruned_subtrees);
  if (diff.degraded) response.flags |= kRespFlagDegraded;
  if (diff.shed_degraded) response.flags |= kRespFlagShedDegraded;
  if (diff.cache_hit_old) response.flags |= kRespFlagCacheOld;
  if (diff.cache_hit_new) response.flags |= kRespFlagCacheNew;
  if (diff.matching_cache_hit) response.flags |= kRespFlagMatchCache;
  if (diff.chain_log_hit) response.flags |= kRespFlagChainLog;
  response.payload = diff.script;
  return response;
}

void Frontend::Execute(WireRequest request, Done done) {
  switch (request.opcode) {
    case Opcode::kPing: {
      WireResponse response;
      response.opcode = Opcode::kPing;
      response.request_id = request.request_id;
      done(std::move(response));
      return;
    }

    case Opcode::kDiff:
    case Opcode::kVdiff: {
      DiffRequest diff;
      diff.format = ToFormat(request.format);
      if (request.opcode == Opcode::kDiff) {
        diff.old_doc = std::move(request.old_doc);
        diff.new_doc = std::move(request.new_doc);
      } else {
        diff.doc_id = std::move(request.doc_id);
        diff.from_version = request.from_version;
        diff.to_version = request.to_version;
      }
      diff.deadline_seconds =
          static_cast<double>(request.deadline_ms) / 1000.0;
      diff.want_script_text = (request.flags & kFlagNoScript) == 0;
      // The correlation fields the completion needs; the documents were
      // moved out above and are not copied again.
      WireRequest header;
      header.opcode = request.opcode;
      header.request_id = request.request_id;
      auto done_ptr = std::make_shared<Done>(std::move(done));
      service_->Submit(std::move(diff),
                       [header, done_ptr](DiffResponse response) {
                         (*done_ptr)(FromDiffResponse(header, response));
                       });
      return;
    }

    case Opcode::kOpen:
    case Opcode::kCommit:
    case Opcode::kMetrics:
    case Opcode::kStatus:
    case Opcode::kOpenReplicated:
      ExecuteControl(std::move(request), std::move(done));
      return;
  }
  // Unreachable: the decoder validated the opcode.
  done(ErrorResponse(request, Status::Internal("unhandled opcode")));
}

void Frontend::ExecuteControl(WireRequest req, Done done_fn) {
  // Shared, not moved into the closure: if TrySubmit declines, the shed
  // path below still needs both the request (for correlation fields) and
  // the callback (which must fire exactly once).
  auto state = std::make_shared<std::pair<WireRequest, Done>>(
      std::move(req), std::move(done_fn));
  auto task = [this, state]() {
    const WireRequest& request = state->first;
    WireResponse response;
    response.opcode = request.opcode;
    response.request_id = request.request_id;
    Status status = Status::Ok();
    switch (request.opcode) {
      case Opcode::kOpen:
        status = service_->CreateStore(request.doc_id, request.old_doc,
                                       ToFormat(request.format));
        break;
      case Opcode::kOpenReplicated:
        status = OpenReplicated(request);
        break;
      case Opcode::kCommit: {
        const StatusOr<int> version = service_->CommitVersion(
            request.doc_id, request.old_doc, ToFormat(request.format));
        status = version.status();
        if (version.ok()) response.value = static_cast<uint32_t>(*version);
        break;
      }
      case Opcode::kMetrics:
        response.payload = service_->metrics().PrometheusExposition();
        break;
      case Opcode::kStatus:
        response.payload = StatusText();
        break;
      default:
        status = Status::Internal("bad control opcode");
        break;
    }
    state->second(status.ok() ? std::move(response)
                              : ErrorResponse(request, status));
  };
  if (!control_pool_->TrySubmit(std::move(task))) {
    (state->second)(ErrorResponse(
        state->first,
        Status::ResourceExhausted("control queue full: request shed")));
  }
}

Status Frontend::OpenReplicated(const WireRequest& request) {
  // The doc id becomes a file name under store_dir_: accept exactly one
  // path component, and check everything before any file is touched.
  const std::string& id = request.doc_id;
  if (id.empty() || id.size() > kMaxReplicatedDocIdLen || id == "." ||
      id == ".." || id.find('/') != std::string::npos ||
      id.find('\0') != std::string::npos) {
    return Status::InvalidArgument(
        "doc id must be one path component: 1.." +
        std::to_string(kMaxReplicatedDocIdLen) +
        " bytes, no '/' or NUL, not \".\" or \"..\"");
  }
  if (request.replicas < 1 || request.replicas > kMaxReplicas) {
    return Status::InvalidArgument(
        "replica count " + std::to_string(request.replicas) + " outside 1.." +
        std::to_string(kMaxReplicas));
  }
  if (store_dir_.empty()) {
    return Status::FailedPrecondition(
        "no store dir configured: replicated stores are disabled");
  }
  std::vector<ReplicaConfig> configs(static_cast<size_t>(request.replicas));
  for (size_t r = 0; r < configs.size(); ++r) {
    configs[r].path = store_dir_ + "/" + id + ".r" + std::to_string(r) + ".log";
  }
  return service_->CreateReplicatedStore(id, request.old_doc,
                                         std::move(configs),
                                         AckMode::kLeaderOnly,
                                         ToFormat(request.format));
}

std::string Frontend::StatusText() {
  MetricsRegistry& m = service_->metrics();
  std::ostringstream out;
  out << "PRUNE subtrees=" << m.counter("diff_prune_subtrees_total")->Value()
      << " nodes=" << m.counter("diff_prune_nodes_total")->Value()
      << " collisions=" << m.counter("diff_prune_collisions_total")->Value()
      << " mcache_hits=" << m.counter("diff_match_cache_hits_total")->Value()
      << " chain_hits=" << m.counter("diff_chain_log_hits_total")->Value()
      << "\n";
  for (const DiffService::StoreStatus& s : service_->StoreStatuses()) {
    out << "store=" << s.doc_id << " versions=" << s.versions
        << " durable=" << (s.durable ? 1 : 0)
        << " health=" << StoreHealthName(s.health)
        << " failures=" << s.consecutive_failures
        << " retries=" << s.faults.transient_retries
        << " rotations=" << s.faults.rotations
        << " scrubs=" << s.faults.scrubs << "\n";
    if (!s.replicated) continue;
    out << "REPL doc=" << s.doc_id << " epoch=" << s.repl_epoch
        << " primary=" << s.repl_primary;
    for (const ReplicaStatus& r : s.replicas) {
      out << " r" << r.index << "=" << ReplicaRoleName(r.role)
          << ":lag=" << r.lag_bytes;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace net
}  // namespace treediff
