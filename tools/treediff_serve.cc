// treediff_serve: the DiffService behind two serving surfaces.
//
// The primary surface is the binary-protocol TCP server (src/net): pass
// --port (0 = ephemeral; the bound ports are printed to stderr) and clients
// speak the length-prefixed protocol of docs/network.md, with pipelining,
// multi-tenant fair-share admission, and a Prometheus /metrics endpoint on
// --metrics-port. SIGTERM (or SIGINT) triggers a graceful shutdown: the
// acceptor stops, in-flight requests drain up to --drain seconds, whatever
// is still queued is answered with an error response, then the process
// exits.
//
// The newline-delimited stdin/stdout protocol below is kept as a *compat
// shim* for shell scripts and the CI: the line commands are decoded into
// the same wire-request structs and executed by the same net::Frontend the
// TCP server uses, so the two surfaces cannot drift apart. New clients
// should prefer the binary protocol.
//
// Requests are one line each, fields separated by tabs. Documents travel
// inline in a field, which works because both front ends accept single-line
// input (s-expressions are single-line by construction; XML documents must
// simply contain no literal newline or tab — whitespace inside text content
// is collapsed by the parser anyway).
//
//   DIFF <format> <old_doc> <new_doc>   diff two inline documents
//   OPEN <doc_id> <format> <base_doc>   create an in-memory version store
//   OPENR <doc_id> <format> <n> <base_doc>
//                                       create a replicated store with n
//                                       replicas (log files under
//                                       --store-dir); commits ship to the
//                                       followers, and a failing primary
//                                       fails over behind the breaker
//   COMMIT <doc_id> <format> <doc>      commit the next version -> OK <v>
//   VDIFF <doc_id> <from> <to>          diff two stored versions
//   STATUS                              per-store health, one line each
//                                       (replicated stores add a REPL line:
//                                       role, epoch, per-follower lag),
//                                       terminated by "."
//   METRICS                             the metrics registry as
//                                       Prometheus text, terminated by "."
//   QUIT                                exit (EOF works too)
//
// OPENR and STATUS are line-only: replicated-store setup and health
// inspection are operator actions, not request traffic. (The TCP surface
// serves the same Prometheus text at GET /metrics.)
//
// <format> is "sexpr" or "xml". Responses:
//
//   OK [<field>...]      success; DIFF/VDIFF append rung=<name> ops=<n>
//                        degraded=<0|1> cache=<0|1><0|1> pruned=<n>
//                        mcache=<0|1> chain=<0|1>, then the edit script,
//                        one operation per line, terminated by "."
//   ERR <Code> <message> failure (one line)
//
// Usage: treediff_serve [--threads N] [--queue N] [--deadline SECONDS]
//                        [--incremental on|off] [--store-dir DIR]
//                        [--port N] [--metrics-port N] [--net-threads N]
//                        [--drain SECONDS] [--no-stdin]
//
// --incremental (default on) turns on incremental serving: the share-map
// pre-pass prunes unchanged subtrees out of every diff, repeated diffs of
// the same document pair reuse the cached phase-1 matching, and adjacent
// VDIFFs are answered straight from the store's commit log. STATUS gains a
// PRUNE line with the cumulative counters.

#include <atomic>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/diff_context.h"
#include "net/frontend.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/diff_service.h"
#include "util/thread_pool.h"

namespace {

using treediff::DiffRequest;
using treediff::DiffRung;
using treediff::DiffRungName;
using treediff::DiffService;
using treediff::DiffServiceOptions;
using treediff::net::Frontend;
using treediff::net::NetServer;
using treediff::net::NetServerOptions;
using treediff::net::Opcode;
using treediff::net::WireRequest;
using treediff::net::WireResponse;

std::atomic<bool> g_shutdown{false};

void OnSignal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

/// SIGTERM/SIGINT set the flag and — installed without SA_RESTART — make
/// the blocking stdin read fail with EINTR, so the line loop falls out and
/// the main thread runs the graceful drain.
void InstallSignalHandlers() {
  struct sigaction action{};
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // Deliberately no SA_RESTART.
  (void)sigaction(SIGTERM, &action, nullptr);
  (void)sigaction(SIGINT, &action, nullptr);
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

/// Strict base-10 integer parse. std::atoi silently maps garbage to 0,
/// which on the wire turned "VDIFF doc x y" into a perfectly plausible
/// diff of version 0 against itself — an error path dropped before the
/// [[nodiscard]] discipline made such swallowing a policy violation.
bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseWireFormat(const std::string& name, uint8_t* format) {
  if (name == "sexpr") {
    *format = treediff::net::kFormatSexpr;
    return true;
  }
  if (name == "xml") {
    *format = treediff::net::kFormatXml;
    return true;
  }
  return false;
}

void PrintError(const treediff::Status& status) {
  std::cout << "ERR " << treediff::CodeName(status.code()) << " "
            << status.message() << "\n";
}

void PrintWireError(const WireResponse& response) {
  std::cout << "ERR " << treediff::CodeName(response.code()) << " "
            << response.payload << "\n";
}

/// Runs one wire request through the shared frontend, synchronously — the
/// line protocol is strictly request/response.
WireResponse CallFrontend(Frontend& frontend, WireRequest request) {
  std::promise<WireResponse> promise;
  std::future<WireResponse> future = promise.get_future();
  frontend.Execute(std::move(request), [&promise](WireResponse response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

void PrintDiffResponse(const WireResponse& response) {
  if (!response.ok()) {
    PrintWireError(response);
    return;
  }
  using treediff::net::kRespFlagCacheNew;
  using treediff::net::kRespFlagCacheOld;
  using treediff::net::kRespFlagChainLog;
  using treediff::net::kRespFlagDegraded;
  using treediff::net::kRespFlagMatchCache;
  std::cout << "OK rung=" << DiffRungName(static_cast<DiffRung>(response.rung))
            << " ops=" << response.value
            << " degraded=" << ((response.flags & kRespFlagDegraded) ? 1 : 0)
            << " cache=" << ((response.flags & kRespFlagCacheOld) ? 1 : 0)
            << ((response.flags & kRespFlagCacheNew) ? 1 : 0)
            << " pruned=" << response.aux
            << " mcache=" << ((response.flags & kRespFlagMatchCache) ? 1 : 0)
            << " chain=" << ((response.flags & kRespFlagChainLog) ? 1 : 0)
            << "\n";
  std::cout << response.payload;
  std::cout << ".\n";
}

}  // namespace

int main(int argc, char** argv) {
  DiffServiceOptions options;
  options.incremental = true;  // The serving tool defaults to incremental.
  double default_deadline = 0.0;
  std::string store_dir = ".";
  bool net_enabled = false;
  bool stdin_enabled = true;
  NetServerOptions net_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr || !ParseInt(v, &options.num_threads)) {
        std::fprintf(stderr, "treediff_serve: --threads wants an integer\n");
        return 2;
      }
    } else if (arg == "--queue") {
      const char* v = next();
      int queue = 0;
      if (v == nullptr || !ParseInt(v, &queue) || queue < 1) {
        std::fprintf(stderr,
                     "treediff_serve: --queue wants a positive integer\n");
        return 2;
      }
      options.queue_capacity = static_cast<size_t>(queue);
    } else if (arg == "--deadline") {
      const char* v = next();
      char* end = nullptr;
      default_deadline = v != nullptr ? std::strtod(v, &end) : 0.0;
      if (v == nullptr || end != v + std::strlen(v) || default_deadline < 0) {
        std::fprintf(stderr,
                     "treediff_serve: --deadline wants seconds (>= 0)\n");
        return 2;
      }
    } else if (arg == "--store-dir") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        std::fprintf(stderr, "treediff_serve: --store-dir wants a path\n");
        return 2;
      }
      store_dir = v;
    } else if (arg == "--incremental") {
      const char* v = next();
      if (v != nullptr && std::strcmp(v, "on") == 0) {
        options.incremental = true;
      } else if (v != nullptr && std::strcmp(v, "off") == 0) {
        options.incremental = false;
      } else {
        std::fprintf(stderr,
                     "treediff_serve: --incremental wants on|off\n");
        return 2;
      }
    } else if (arg == "--port") {
      const char* v = next();
      int port = 0;
      if (v == nullptr || !ParseInt(v, &port) || port < 0 || port > 65535) {
        std::fprintf(stderr, "treediff_serve: --port wants 0..65535\n");
        return 2;
      }
      net_enabled = true;
      net_options.port = static_cast<uint16_t>(port);
    } else if (arg == "--metrics-port") {
      const char* v = next();
      int port = 0;
      if (v == nullptr || !ParseInt(v, &port) || port < 0 || port > 65535) {
        std::fprintf(stderr,
                     "treediff_serve: --metrics-port wants 0..65535\n");
        return 2;
      }
      net_options.metrics_port = static_cast<uint16_t>(port);
    } else if (arg == "--net-threads") {
      const char* v = next();
      if (v == nullptr || !ParseInt(v, &net_options.num_event_threads) ||
          net_options.num_event_threads < 1) {
        std::fprintf(stderr,
                     "treediff_serve: --net-threads wants a positive "
                     "integer\n");
        return 2;
      }
    } else if (arg == "--drain") {
      const char* v = next();
      char* end = nullptr;
      const double drain = v != nullptr ? std::strtod(v, &end) : -1;
      if (v == nullptr || end != v + std::strlen(v) || drain < 0) {
        std::fprintf(stderr, "treediff_serve: --drain wants seconds (>= 0)\n");
        return 2;
      }
      net_options.drain_deadline_seconds = drain;
    } else if (arg == "--no-stdin") {
      stdin_enabled = false;
    } else {
      std::fprintf(stderr,
                   "usage: treediff_serve [--threads N] [--queue N] "
                   "[--deadline SECONDS] [--incremental on|off] "
                   "[--store-dir DIR] [--port N] [--metrics-port N] "
                   "[--net-threads N] [--drain SECONDS] [--no-stdin]\n");
      return 2;
    }
  }
  options.default_deadline_seconds = default_deadline;

  InstallSignalHandlers();

  DiffService service(options);

  // The line protocol's executor: the same Frontend class the TCP server
  // wraps, over the same service. One control thread is plenty for a
  // synchronous line loop.
  treediff::ThreadPool control_pool(treediff::ThreadPool::Options{1, 16});
  Frontend frontend(&service, &control_pool);

  std::unique_ptr<NetServer> net_server;
  if (net_enabled) {
    net_server = std::make_unique<NetServer>(&service, net_options);
    const treediff::Status started = net_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "treediff_serve: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "treediff_serve: listening on %s:%u (metrics :%u)\n",
                 net_options.host.c_str(), net_server->port(),
                 net_server->metrics_port());
  }

  std::string line;
  while (stdin_enabled && !g_shutdown.load(std::memory_order_relaxed) &&
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = SplitTabs(line);
    const std::string& cmd = f[0];

    if (cmd == "QUIT") break;

    if (cmd == "STATUS") {
      treediff::MetricsRegistry& m = service.metrics();
      std::cout << "PRUNE subtrees="
                << m.counter("diff_prune_subtrees_total")->Value()
                << " nodes=" << m.counter("diff_prune_nodes_total")->Value()
                << " collisions="
                << m.counter("diff_prune_collisions_total")->Value()
                << " mcache_hits="
                << m.counter("diff_match_cache_hits_total")->Value()
                << " chain_hits="
                << m.counter("diff_chain_log_hits_total")->Value() << "\n";
      for (const DiffService::StoreStatus& s : service.StoreStatuses()) {
        std::cout << "store=" << s.doc_id << " versions=" << s.versions
                  << " durable=" << (s.durable ? 1 : 0)
                  << " health=" << treediff::StoreHealthName(s.health)
                  << " failures=" << s.consecutive_failures
                  << " retries=" << s.faults.transient_retries
                  << " rotations=" << s.faults.rotations
                  << " scrubs=" << s.faults.scrubs << "\n";
        if (s.replicated) {
          std::cout << "REPL doc=" << s.doc_id << " epoch=" << s.repl_epoch
                    << " primary=" << s.repl_primary;
          for (const treediff::ReplicaStatus& r : s.replicas) {
            std::cout << " r" << r.index << "="
                      << treediff::ReplicaRoleName(r.role)
                      << ":lag=" << r.lag_bytes;
          }
          std::cout << "\n";
        }
      }
      std::cout << ".\n";
      std::cout.flush();
      continue;
    }

    if (cmd == "METRICS") {
      // The same Prometheus text GET /metrics serves on the TCP surface.
      std::cout << service.metrics().PrometheusExposition() << ".\n";
      std::cout.flush();
      continue;
    }

    if (cmd == "DIFF" && f.size() == 4) {
      WireRequest request;
      request.opcode = Opcode::kDiff;
      if (!ParseWireFormat(f[1], &request.format)) {
        PrintError(treediff::Status::InvalidArgument(
            "unknown format \"" + f[1] + "\" (want sexpr|xml)"));
        std::cout.flush();
        continue;
      }
      request.old_doc = f[2];
      request.new_doc = f[3];
      PrintDiffResponse(CallFrontend(frontend, std::move(request)));
      std::cout.flush();
      continue;
    }

    if (cmd == "OPEN" && f.size() == 4) {
      WireRequest request;
      request.opcode = Opcode::kOpen;
      if (!ParseWireFormat(f[2], &request.format)) {
        PrintError(treediff::Status::InvalidArgument(
            "unknown format \"" + f[2] + "\" (want sexpr|xml)"));
        std::cout.flush();
        continue;
      }
      request.doc_id = f[1];
      request.old_doc = f[3];
      const WireResponse response = CallFrontend(frontend, std::move(request));
      if (response.ok()) {
        std::cout << "OK doc=" << f[1] << " version=0\n";
      } else {
        PrintWireError(response);
      }
      std::cout.flush();
      continue;
    }

    if (cmd == "OPENR" && f.size() == 5) {
      // Line-only: replicated-store creation is an operator action with
      // host-local file paths, not request traffic for the wire protocol.
      DiffRequest::Format format;
      uint8_t wire_format = 0;
      int replicas = 0;
      if (!ParseWireFormat(f[2], &wire_format)) {
        PrintError(treediff::Status::InvalidArgument(
            "unknown format \"" + f[2] + "\" (want sexpr|xml)"));
        std::cout.flush();
        continue;
      }
      format = Frontend::ToFormat(wire_format);
      if (!ParseInt(f[3], &replicas) || replicas < 1) {
        PrintError(treediff::Status::InvalidArgument(
            "bad replica count \"" + f[3] + "\" (want a positive integer)"));
        std::cout.flush();
        continue;
      }
      std::vector<treediff::ReplicaConfig> configs;
      for (int r = 0; r < replicas; ++r) {
        treediff::ReplicaConfig config;
        config.path =
            store_dir + "/" + f[1] + ".r" + std::to_string(r) + ".log";
        configs.push_back(std::move(config));
      }
      const treediff::Status status = service.CreateReplicatedStore(
          f[1], f[4], std::move(configs), treediff::AckMode::kLeaderOnly,
          format);
      if (status.ok()) {
        std::cout << "OK doc=" << f[1] << " version=0 replicas=" << replicas
                  << "\n";
      } else {
        PrintError(status);
      }
      std::cout.flush();
      continue;
    }

    if (cmd == "COMMIT" && f.size() == 4) {
      WireRequest request;
      request.opcode = Opcode::kCommit;
      if (!ParseWireFormat(f[2], &request.format)) {
        PrintError(treediff::Status::InvalidArgument(
            "unknown format \"" + f[2] + "\" (want sexpr|xml)"));
        std::cout.flush();
        continue;
      }
      request.doc_id = f[1];
      request.old_doc = f[3];
      const WireResponse response = CallFrontend(frontend, std::move(request));
      if (response.ok()) {
        std::cout << "OK version=" << response.value << "\n";
      } else {
        PrintWireError(response);
      }
      std::cout.flush();
      continue;
    }

    if (cmd == "VDIFF" && f.size() == 4) {
      WireRequest request;
      request.opcode = Opcode::kVdiff;
      request.doc_id = f[1];
      int from = 0;
      int to = 0;
      if (!ParseInt(f[2], &from) || !ParseInt(f[3], &to)) {
        PrintError(treediff::Status::InvalidArgument(
            "bad version number \"" + f[2] + "\"/\"" + f[3] +
            "\" (want base-10 integers)"));
        std::cout.flush();
        continue;
      }
      request.from_version = from;
      request.to_version = to;
      PrintDiffResponse(CallFrontend(frontend, std::move(request)));
      std::cout.flush();
      continue;
    }

    PrintError(treediff::Status::InvalidArgument(
        "bad request \"" + cmd + "\" (or wrong field count); commands: "
        "DIFF OPEN OPENR COMMIT VDIFF STATUS METRICS QUIT"));
    std::cout.flush();
  }

  // No stdin loop (--no-stdin): park until a signal asks for shutdown.
  while (!stdin_enabled && net_server != nullptr &&
         !g_shutdown.load(std::memory_order_relaxed)) {
    pause();  // Any handled signal (SIGTERM/SIGINT) wakes this.
  }

  // Graceful shutdown: stop accepting, drain in-flight network requests up
  // to the drain deadline (late ones get error responses, not silence),
  // then stop the service pool.
  if (net_server != nullptr) {
    std::fprintf(stderr, "treediff_serve: draining\n");
    net_server->Shutdown();
  }
  service.Shutdown();
  // A response the peer never received is an error path, not a success:
  // surface write failures (closed pipe, full disk behind a redirect)
  // instead of exiting 0 with responses silently dropped on the wire.
  std::cout.flush();
  if (!std::cout) {
    std::fprintf(stderr, "treediff_serve: error writing responses to stdout\n");
    return 1;
  }
  return 0;
}
