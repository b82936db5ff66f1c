#ifndef TREEDIFF_NET_FRONTEND_H_
#define TREEDIFF_NET_FRONTEND_H_

#include <functional>
#include <string>
#include <utility>

#include "net/wire.h"
#include "service/diff_service.h"
#include "util/thread_pool.h"

namespace treediff {
namespace net {

/// Most replicas one kOpenReplicated request may ask for.
inline constexpr int kMaxReplicas = 7;

/// Longest doc id kOpenReplicated accepts; the id becomes a file name.
inline constexpr size_t kMaxReplicatedDocIdLen = 128;

/// Executes decoded wire requests against a DiffService — the one place
/// opcode semantics live. The epoll server (net/server.h) owns the only
/// instance in a serving process.
///
/// Diff work rides the service's own async Submit path (its worker pool);
/// control operations (open/commit/metrics/status/open-replicated) run on
/// the small control pool passed in, so a slow store commit never blocks
/// an event-loop thread. `done` is invoked exactly once per Execute, on a
/// service worker, a control-pool thread, or inline (ping; shed at
/// admission; pool rejected).
class Frontend {
 public:
  using Done = std::function<void(WireResponse)>;

  /// Both pointers are borrowed and must outlive the frontend.
  /// `store_dir` is where kOpenReplicated places replica logs
  /// (`<store_dir>/<doc_id>.r<i>.log`); empty refuses kOpenReplicated.
  Frontend(DiffService* service, ThreadPool* control_pool,
           std::string store_dir)
      : service_(service),
        control_pool_(control_pool),
        store_dir_(std::move(store_dir)) {}

  void Execute(WireRequest request, Done done);

  /// Maps a wire format byte (already validated by the decoder) to the
  /// service's enum.
  static DiffRequest::Format ToFormat(uint8_t wire_format);

  /// Builds the response for a finished diff (also used to shape error
  /// responses uniformly).
  static WireResponse FromDiffResponse(const WireRequest& request,
                                       const DiffResponse& response);

  /// An error response echoing the request's correlation fields.
  static WireResponse ErrorResponse(const WireRequest& request,
                                    const Status& status);

 private:
  void ExecuteControl(WireRequest request, Done done);

  /// The kStatus payload: a PRUNE counters line, one store= line per
  /// store, and a REPL line per replicated store.
  std::string StatusText();

  /// Validates and runs one kOpenReplicated request.
  Status OpenReplicated(const WireRequest& request);

  DiffService* service_;
  ThreadPool* control_pool_;
  std::string store_dir_;
};

}  // namespace net
}  // namespace treediff

#endif  // TREEDIFF_NET_FRONTEND_H_
