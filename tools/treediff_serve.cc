// treediff_serve: the DiffService behind the binary-protocol TCP server
// (src/net). Clients speak the length-prefixed protocol of docs/network.md
// — tools/treediff_client is the command-line client — with pipelining,
// multi-tenant fair-share admission, and a Prometheus /metrics endpoint on
// --metrics-port. The bound ports are printed to stderr:
//
//   treediff_serve: listening on 127.0.0.1:<port> (metrics :<port>)
//
// The process runs until SIGTERM or SIGINT, which triggers a graceful
// shutdown: the acceptor stops, in-flight requests drain up to --drain
// seconds, whatever is still queued is answered with an error response,
// then the process exits 0.
//
// Usage: treediff_serve [--threads N] [--queue N] [--deadline SECONDS]
//                        [--incremental on|off] [--store-dir DIR]
//                        [--port N] [--metrics-port N] [--net-threads N]
//                        [--drain SECONDS] [--no-stdin]
//
// --port and --metrics-port default to 0 (an ephemeral port).
// --incremental (default on) turns on incremental serving: the share-map
// pre-pass prunes unchanged subtrees out of every diff, repeated diffs of
// the same document pair are answered from the result cache, and adjacent
// version diffs are answered straight from the store's commit log.
// --store-dir is where the open-replicated opcode places replica logs
// (<dir>/<doc_id>.r<i>.log); without it that opcode is refused.
// --no-stdin is accepted and ignored (the server never reads stdin).

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_flags.h"
#include "net/server.h"
#include "service/diff_service.h"

int main(int argc, char** argv) {
  using treediff::cli::ParseInt;
  using treediff::cli::ParseNonNegative;

  treediff::DiffServiceOptions options;
  options.incremental = true;  // The serving tool defaults to incremental.
  treediff::net::NetServerOptions net_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-stdin") continue;
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    auto bad = [&](const char* want) {
      std::fprintf(stderr, "treediff_serve: %s wants %s\n", arg.c_str(),
                   want);
      return 2;
    };
    int n = 0;
    if (arg == "--threads") {
      if (!ParseInt(v, INT_MIN, INT_MAX, &options.num_threads)) {
        return bad("an integer");
      }
    } else if (arg == "--queue") {
      if (!ParseInt(v, 1, INT_MAX, &n)) return bad("a positive integer");
      options.queue_capacity = static_cast<size_t>(n);
    } else if (arg == "--deadline") {
      if (!ParseNonNegative(v, &options.default_deadline_seconds)) {
        return bad("seconds (>= 0)");
      }
    } else if (arg == "--store-dir") {
      if (v == nullptr || *v == '\0') return bad("a path");
      net_options.store_dir = v;
    } else if (arg == "--incremental") {
      if (v == nullptr ||
          (std::strcmp(v, "on") != 0 && std::strcmp(v, "off") != 0)) {
        return bad("on|off");
      }
      options.incremental = std::strcmp(v, "on") == 0;
    } else if (arg == "--port" || arg == "--metrics-port") {
      if (!ParseInt(v, 0, 65535, &n)) return bad("0..65535");
      (arg == "--port" ? net_options.port : net_options.metrics_port) =
          static_cast<uint16_t>(n);
    } else if (arg == "--net-threads") {
      if (!ParseInt(v, 1, INT_MAX, &net_options.num_event_threads)) {
        return bad("a positive integer");
      }
    } else if (arg == "--drain") {
      if (!ParseNonNegative(v, &net_options.drain_deadline_seconds)) {
        return bad("seconds (>= 0)");
      }
    } else {
      std::fprintf(stderr,
                   "usage: treediff_serve [--threads N] [--queue N] "
                   "[--deadline SECONDS] [--incremental on|off] "
                   "[--store-dir DIR] [--port N] [--metrics-port N] "
                   "[--net-threads N] [--drain SECONDS] [--no-stdin]\n");
      return 2;
    }
  }

  // SIGTERM/SIGINT are blocked before any thread starts (every thread
  // inherits the mask) and taken synchronously by sigwait below, so no
  // handler runs and no signal can slip past the wait.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  treediff::DiffService service(options);
  treediff::net::NetServer server(&service, net_options);
  const treediff::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "treediff_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "treediff_serve: listening on %s:%u (metrics :%u)\n",
               net_options.host.c_str(), server.port(), server.metrics_port());

  int signal_number = 0;
  sigwait(&signals, &signal_number);

  // Graceful shutdown: stop accepting, drain in-flight requests up to the
  // drain deadline (late ones get error responses, not silence), then stop
  // the service pool.
  std::fprintf(stderr, "treediff_serve: draining\n");
  server.Shutdown();
  service.Shutdown();
  return 0;
}
