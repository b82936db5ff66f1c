// treediff_client: command-line client and load generator for the binary
// protocol served by treediff_serve (docs/network.md).
//
// One-shot commands (connect, one request, print, exit):
//
//   treediff_client --port P ping
//   treediff_client --port P diff <sexpr|xml> <old_doc> <new_doc>
//   treediff_client --port P open <doc_id> <sexpr|xml> <base_doc>
//   treediff_client --port P openr <doc_id> <sexpr|xml> <n> <base_doc>
//   treediff_client --port P commit <doc_id> <sexpr|xml> <doc>
//   treediff_client --port P vdiff <doc_id> <from> <to>
//   treediff_client --port P status
//   treediff_client --port P metrics
//
// A success prints one "OK [<field>...]" line: diff/vdiff add rung=<name>
// ops=<n> degraded=<0|1> cache=<0|1><0|1> pruned=<n> mcache=<0|1>
// chain=<0|1>, open adds doc=<id> version=0, openr adds doc=<id> version=0
// replicas=<n>, commit adds version=<v>. diff, vdiff, status and metrics
// then print their text payload (edit script, store status, Prometheus
// text) and a lone "." line. A failure prints "ERR <Code> <message>".
// Exit status: 0 OK, 1 ERR or transport failure, 2 usage error.
//
// Load generation (the interesting mode):
//
//   treediff_client --port P load [--connections N] [--pipeline D]
//       [--requests N] [--rps R] [--tenant NAME] [--format sexpr|xml]
//       [--old DOC] [--new DOC] [--json]
//
// With --rps 0 (default) the generator runs CLOSED loop: every connection
// keeps D requests in flight and a completion immediately triggers the next
// send — this measures server capacity. With --rps > 0 it runs OPEN loop:
// requests are issued on a fixed aggregate schedule regardless of
// completions — this measures latency under a fixed offered load without
// the coordinated-omission blind spot of closed-loop drivers.
//
// --tenant stamps every request with a tenant id, which the server's
// fair-share admission uses for isolation; run two clients with different
// tenants to watch the weighted-deficit scheduler arbitrate.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#include "cli_flags.h"
#include "core/diff_context.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/wire.h"

namespace {

using treediff::cli::ParseInt;
using treediff::cli::ParseInt64;
using treediff::cli::ParseNonNegative;
using treediff::net::kFormatSexpr;
using treediff::net::kFormatXml;
using treediff::net::kRespFlagCacheNew;
using treediff::net::kRespFlagCacheOld;
using treediff::net::kRespFlagChainLog;
using treediff::net::kRespFlagDegraded;
using treediff::net::kRespFlagMatchCache;
using treediff::net::LoadGenOptions;
using treediff::net::LoadGenResult;
using treediff::net::Opcode;
using treediff::net::SimpleClient;
using treediff::net::WireRequest;
using treediff::net::WireResponse;

int Usage() {
  std::fprintf(
      stderr,
      "usage: treediff_client [--host H] --port P <command>\n"
      "  ping\n"
      "  diff <sexpr|xml> <old_doc> <new_doc>\n"
      "  open <doc_id> <sexpr|xml> <base_doc>\n"
      "  openr <doc_id> <sexpr|xml> <n> <base_doc>\n"
      "  commit <doc_id> <sexpr|xml> <doc>\n"
      "  vdiff <doc_id> <from> <to>\n"
      "  status\n"
      "  metrics\n"
      "  load [--connections N] [--pipeline D] [--requests N] [--rps R]\n"
      "       [--tenant NAME] [--format sexpr|xml] [--old DOC] [--new DOC]\n"
      "       [--json]\n");
  return 2;
}

bool ParseFormat(const std::string& name, uint8_t* format) {
  if (name == "sexpr") {
    *format = kFormatSexpr;
    return true;
  }
  if (name == "xml") {
    *format = kFormatXml;
    return true;
  }
  return false;
}

/// Builds the request for a one-shot command from its arguments. Returns
/// false on an unknown command or malformed arguments.
bool BuildRequest(const std::string& command, char** args, int nargs,
                  WireRequest* request) {
  static constexpr struct {
    const char* name;
    Opcode opcode;
    int nargs;
  } kCommands[] = {
      {"ping", Opcode::kPing, 0},     {"diff", Opcode::kDiff, 3},
      {"open", Opcode::kOpen, 3},     {"openr", Opcode::kOpenReplicated, 4},
      {"commit", Opcode::kCommit, 3}, {"vdiff", Opcode::kVdiff, 3},
      {"status", Opcode::kStatus, 0}, {"metrics", Opcode::kMetrics, 0},
  };
  for (const auto& c : kCommands) {
    if (command != c.name) continue;
    if (nargs != c.nargs) return false;
    request->opcode = c.opcode;
    switch (c.opcode) {
      case Opcode::kDiff:
        request->old_doc = args[1];
        request->new_doc = args[2];
        return ParseFormat(args[0], &request->format);
      case Opcode::kOpen:
      case Opcode::kCommit:
      case Opcode::kOpenReplicated:
        request->doc_id = args[0];
        request->old_doc = args[nargs - 1];
        return ParseFormat(args[1], &request->format) &&
               (c.opcode != Opcode::kOpenReplicated ||
                ParseInt(args[2], INT32_MIN, INT32_MAX, &request->replicas));
      case Opcode::kVdiff:
        request->doc_id = args[0];
        return ParseInt(args[1], INT32_MIN, INT32_MAX,
                        &request->from_version) &&
               ParseInt(args[2], INT32_MIN, INT32_MAX, &request->to_version);
      default:
        return true;
    }
  }
  return false;
}

/// Prints a one-shot response in the OK/ERR line shape described at the
/// top of this file; returns the exit status.
int PrintResponse(const WireRequest& request, const WireResponse& response) {
  if (!response.ok()) {
    std::printf("ERR %s %s\n", treediff::CodeName(response.code()),
                response.payload.c_str());
    return 1;
  }
  std::printf("OK");
  switch (request.opcode) {
    case Opcode::kDiff:
    case Opcode::kVdiff: {
      auto bit = [&](uint8_t flag) { return (response.flags & flag) ? 1 : 0; };
      std::printf(" rung=%s ops=%u degraded=%d cache=%d%d pruned=%u "
                  "mcache=%d chain=%d",
                  treediff::DiffRungName(
                      static_cast<treediff::DiffRung>(response.rung)),
                  response.value, bit(kRespFlagDegraded),
                  bit(kRespFlagCacheOld), bit(kRespFlagCacheNew), response.aux,
                  bit(kRespFlagMatchCache), bit(kRespFlagChainLog));
      break;
    }
    case Opcode::kOpen:
      std::printf(" doc=%s version=0", request.doc_id.c_str());
      break;
    case Opcode::kOpenReplicated:
      std::printf(" doc=%s version=0 replicas=%d", request.doc_id.c_str(),
                  request.replicas);
      break;
    case Opcode::kCommit:
      std::printf(" version=%u", response.value);
      break;
    default:
      break;
  }
  std::printf("\n");
  if (request.opcode == Opcode::kDiff || request.opcode == Opcode::kVdiff ||
      request.opcode == Opcode::kStatus || request.opcode == Opcode::kMetrics) {
    std::fwrite(response.payload.data(), 1, response.payload.size(), stdout);
    std::printf(".\n");
  }
  return 0;
}

void PrintResult(const LoadGenResult& r, bool json) {
  if (json) {
    std::printf(
        "{\"sent\": %llu, \"completed\": %llu, \"ok\": %llu, "
        "\"errors\": %llu, \"connections_lost\": %llu, "
        "\"elapsed_seconds\": %.3f, \"throughput_rps\": %.1f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"max_ms\": %.3f, \"bytes_written\": %llu, \"bytes_read\": %llu}\n",
        static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.completed - r.ok),
        static_cast<unsigned long long>(r.connections_lost),
        r.elapsed_seconds, r.throughput_rps, r.p50_ms, r.p95_ms, r.p99_ms,
        r.max_ms, static_cast<unsigned long long>(r.bytes_written),
        static_cast<unsigned long long>(r.bytes_read));
    return;
  }
  std::printf("sent %llu, completed %llu (%llu ok) in %.3fs = %.1f req/s\n",
              static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.ok), r.elapsed_seconds,
              r.throughput_rps);
  std::printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
              r.p50_ms, r.p95_ms, r.p99_ms, r.max_ms);
  for (const auto& [code, count] : r.errors) {
    std::printf("errors %s: %llu\n",
                treediff::CodeName(static_cast<treediff::Code>(code)),
                static_cast<unsigned long long>(count));
  }
  if (r.connections_lost > 0) {
    std::printf("connections lost: %llu\n",
                static_cast<unsigned long long>(r.connections_lost));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port") {
      if (!ParseInt(i + 1 < argc ? argv[++i] : nullptr, 1, 65535, &port)) {
        std::fprintf(stderr, "treediff_client: --port wants 1..65535\n");
        return 2;
      }
    } else {
      break;
    }
  }
  if (port == 0 || i >= argc) return Usage();
  const std::string command = argv[i++];

  if (command != "load") {
    WireRequest request;
    if (!BuildRequest(command, argv + i, argc - i, &request)) return Usage();
    SimpleClient client;
    WireResponse response;
    treediff::Status status =
        client.Connect(host, static_cast<uint16_t>(port));
    if (status.ok()) status = client.Call(request, &response);
    if (!status.ok()) {
      std::fprintf(stderr, "treediff_client: %s\n", status.ToString().c_str());
      return 1;
    }
    return PrintResponse(request, response);
  }

  LoadGenOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  std::string tenant;
  uint8_t format = kFormatSexpr;
  std::string old_doc =
      "(D (P (S \"alpha beta gamma\") (S \"delta epsilon\")))";
  std::string new_doc =
      "(D (P (S \"alpha beta zeta\") (S \"delta epsilon\") (S \"theta\")))";
  bool json = false;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    int64_t n = 0;
    if (arg == "--connections" || arg == "--pipeline" ||
        arg == "--requests") {
      if (!ParseInt64(next(), 1, INT64_MAX, &n)) {
        std::fprintf(stderr, "treediff_client: %s wants a positive integer\n",
                     arg.c_str());
        return 2;
      }
      if (arg == "--connections") options.connections = static_cast<size_t>(n);
      if (arg == "--pipeline") options.pipeline = static_cast<size_t>(n);
      if (arg == "--requests") {
        options.total_requests = static_cast<uint64_t>(n);
      }
    } else if (arg == "--rps") {
      if (!ParseNonNegative(next(), &options.open_loop_rps)) {
        std::fprintf(stderr, "treediff_client: --rps wants a rate >= 0\n");
        return 2;
      }
    } else if (arg == "--tenant") {
      const char* v = next();
      if (v == nullptr) return Usage();
      tenant = v;
    } else if (arg == "--format") {
      const char* v = next();
      if (v == nullptr || !ParseFormat(v, &format)) return Usage();
    } else if (arg == "--old") {
      const char* v = next();
      if (v == nullptr) return Usage();
      old_doc = v;
    } else if (arg == "--new") {
      const char* v = next();
      if (v == nullptr) return Usage();
      new_doc = v;
    } else if (arg == "--json") {
      json = true;
    } else {
      return Usage();
    }
  }

  options.make_request = [&](uint64_t) {
    WireRequest request;
    request.opcode = Opcode::kDiff;
    request.format = format;
    request.tenant = tenant;
    request.flags = treediff::net::kFlagNoScript;
    request.old_doc = old_doc;
    request.new_doc = new_doc;
    return request;
  };

  const treediff::StatusOr<LoadGenResult> result =
      treediff::net::RunLoadGen(options);
  if (!result.ok()) {
    std::fprintf(stderr, "treediff_client: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  PrintResult(*result, json);
  return 0;
}
