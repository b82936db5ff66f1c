// End-to-end tests of the epoll network front end: request/response over
// real loopback sockets, byte-identity with the direct DiffService::Submit
// path, pipelining with out-of-order completion, per-frame error handling
// vs fatal framing errors, connection fan-in, the graceful-shutdown
// regression (no accepted request is dropped without an error response),
// and the replicated-store and status opcodes (including the checks that
// keep a network client's doc id inside the server's store dir).

#include "net/server.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "service/diff_service.h"

namespace treediff {
namespace net {
namespace {

void PreInternLabels(LabelTable& table) {
  table.Intern("D");
  table.Intern("P");
  table.Intern("S");
}

std::string OldDoc(int i) {
  return "(D (P (S \"alpha " + std::to_string(i) +
         " one two three\") (S \"beta common tail\")) "
         "(P (S \"gamma shared base\")))";
}

std::string NewDoc(int i) {
  return "(D (P (S \"alpha " + std::to_string(i) +
         " one two four\") (S \"beta common tail\")) "
         "(P (S \"gamma shared base\") (S \"epsilon new\")))";
}

struct ServerFixture {
  explicit ServerFixture(NetServerOptions net_options = {},
                         DiffServiceOptions service_options = {}) {
    service = std::make_unique<DiffService>(service_options);
    PreInternLabels(*service->label_table());
    server = std::make_unique<NetServer>(service.get(), net_options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<DiffService> service;
  std::unique_ptr<NetServer> server;
};

/// A fresh directory under the gtest temp dir, removed on destruction.
struct TempDir {
  TempDir() {
    std::string pattern = ::testing::TempDir() + "net_server_XXXXXX";
    path = mkdtemp(pattern.data()) != nullptr ? pattern : "";
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  std::string path;
};

WireRequest OpenReplicatedRequest(const std::string& doc_id, int replicas,
                                  const std::string& doc) {
  WireRequest request;
  request.opcode = Opcode::kOpenReplicated;
  request.doc_id = doc_id;
  request.replicas = replicas;
  request.old_doc = doc;
  return request;
}

TEST(NetServerTest, PingAndDiff) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  WireResponse response;
  ASSERT_TRUE(
      client.Diff(OldDoc(1), NewDoc(1), kFormatSexpr, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_GT(response.value, 0u);          // Operations.
  EXPECT_FALSE(response.payload.empty());  // Script text.
}

TEST(NetServerTest, ResponsesByteIdenticalToDirectSubmit) {
  // A reference service (no network) and a served service, both freshly
  // constructed with the same options and label interning order, fed the
  // same requests in the same order: the wire response must carry exactly
  // the bytes the direct API returns.
  DiffServiceOptions service_options;
  DiffService reference(service_options);
  PreInternLabels(*reference.label_table());

  ServerFixture fx({}, service_options);
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  for (int i = 0; i < 16; ++i) {
    DiffRequest direct;
    direct.format = DiffRequest::Format::kSexpr;
    direct.old_doc = OldDoc(i);
    direct.new_doc = NewDoc(i);
    const DiffResponse expected = reference.SubmitSync(std::move(direct));
    ASSERT_TRUE(expected.status.ok());

    WireResponse got;
    ASSERT_TRUE(client.Diff(OldDoc(i), NewDoc(i), kFormatSexpr, &got).ok());
    ASSERT_TRUE(got.ok()) << got.payload;
    EXPECT_EQ(got.payload, expected.script) << "request " << i;
    EXPECT_EQ(got.value, static_cast<uint32_t>(expected.operations));
    EXPECT_EQ(got.rung, static_cast<uint8_t>(expected.rung));
    EXPECT_EQ(got.aux, static_cast<uint32_t>(expected.pruned_subtrees));
  }
}

TEST(NetServerTest, OpenCommitVdiffAndMetricsOpcodes) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  WireResponse response;
  ASSERT_TRUE(client.Open("doc-1", OldDoc(0), kFormatSexpr, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;

  ASSERT_TRUE(client.Commit("doc-1", NewDoc(0), kFormatSexpr, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_EQ(response.value, 1u);  // The committed version number.

  ASSERT_TRUE(client.Vdiff("doc-1", 0, 1, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_GT(response.value, 0u);

  // Unknown store: the error must come back as a response, not a hang.
  ASSERT_TRUE(client.Vdiff("no-such-doc", 0, 1, &response).ok());
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.code(), Code::kNotFound);

  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());
  EXPECT_NE(text.find("net_frames_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
}

TEST(NetServerTest, OpenReplicatedVdiffByteIdenticalToDirectSubmit) {
  // The reference service builds the same 3-replica group through the
  // direct API; both then commit the same two versions, and the wire's
  // version diff 0 -> 2 must carry exactly the bytes SubmitSync returns.
  TempDir reference_dir;
  DiffService reference(DiffServiceOptions{});
  PreInternLabels(*reference.label_table());
  std::vector<ReplicaConfig> configs(3);
  for (size_t r = 0; r < configs.size(); ++r) {
    configs[r].path =
        reference_dir.path + "/doc.r" + std::to_string(r) + ".log";
  }
  ASSERT_TRUE(reference
                  .CreateReplicatedStore("doc", OldDoc(0), std::move(configs),
                                         AckMode::kLeaderOnly)
                  .ok());
  ASSERT_TRUE(reference.CommitVersion("doc", NewDoc(0)).ok());
  ASSERT_TRUE(reference.CommitVersion("doc", NewDoc(1)).ok());
  DiffRequest direct;
  direct.doc_id = "doc";
  direct.from_version = 0;
  direct.to_version = 2;
  const DiffResponse expected = reference.SubmitSync(std::move(direct));
  ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();

  TempDir store_dir;
  NetServerOptions net_options;
  net_options.store_dir = store_dir.path;
  ServerFixture fx(net_options);
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  WireResponse response;
  ASSERT_TRUE(
      client.Call(OpenReplicatedRequest("doc", 3, OldDoc(0)), &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  ASSERT_TRUE(client.Commit("doc", NewDoc(0), kFormatSexpr, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_EQ(response.value, 1u);
  ASSERT_TRUE(client.Commit("doc", NewDoc(1), kFormatSexpr, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_EQ(response.value, 2u);
  // The primary's log is written before the open is answered; follower
  // logs appear when the background shipper first reaches them.
  EXPECT_TRUE(std::filesystem::exists(store_dir.path + "/doc.r0.log"));

  ASSERT_TRUE(client.Vdiff("doc", 0, 2, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_EQ(response.payload, expected.script);
  EXPECT_EQ(response.value, static_cast<uint32_t>(expected.operations));
  EXPECT_EQ(response.rung, static_cast<uint8_t>(expected.rung));

  WireRequest status;
  status.opcode = Opcode::kStatus;
  ASSERT_TRUE(client.Call(status, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_EQ(response.opcode, Opcode::kStatus);
  EXPECT_NE(response.payload.find("PRUNE subtrees="), std::string::npos)
      << response.payload;
  EXPECT_NE(response.payload.find("store=doc versions=3 durable=1"),
            std::string::npos)
      << response.payload;
  EXPECT_NE(response.payload.find("REPL doc=doc epoch="), std::string::npos)
      << response.payload;
}

TEST(NetServerTest, OpenReplicatedRejectsUnsafeRequestsBeforeTouchingFiles) {
  // The store dir sits alone inside its own temp dir, so a path that
  // escaped it ("../x") would show up as a sibling.
  TempDir parent;
  const std::string store_dir = parent.path + "/store";
  ASSERT_TRUE(std::filesystem::create_directory(store_dir));
  NetServerOptions net_options;
  net_options.store_dir = store_dir;
  ServerFixture fx(net_options);
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  const struct {
    std::string doc_id;
    int replicas;
  } kBad[] = {{"../x", 3}, {"a/b", 3}, {"", 3}, {"..", 3},
              {".", 3},    {std::string("a\0b", 3), 3},
              {std::string(kMaxReplicatedDocIdLen + 1, 'a'), 3},
              {"ok", 0},   {"ok", -1}, {"ok", kMaxReplicas + 1}};
  for (const auto& bad : kBad) {
    WireResponse response;
    ASSERT_TRUE(client
                    .Call(OpenReplicatedRequest(bad.doc_id, bad.replicas,
                                                OldDoc(0)),
                          &response)
                    .ok());
    EXPECT_EQ(response.code(), Code::kInvalidArgument)
        << "doc id \"" << bad.doc_id << "\" replicas " << bad.replicas
        << ": " << response.payload;
  }
  EXPECT_TRUE(std::filesystem::is_empty(store_dir));
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(parent.path)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // Only the store dir itself.

  // The cap itself is accepted.
  WireResponse response;
  ASSERT_TRUE(client
                  .Call(OpenReplicatedRequest("ok", kMaxReplicas, OldDoc(0)),
                        &response)
                  .ok());
  EXPECT_TRUE(response.ok()) << response.payload;
}

TEST(NetServerTest, OpenReplicatedOfAnAttachedIdLeavesNoLogBehind) {
  TempDir store_dir;
  NetServerOptions net_options;
  net_options.store_dir = store_dir.path;
  ServerFixture fx(net_options);
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  WireResponse response;
  ASSERT_TRUE(client.Open("doc", OldDoc(0), kFormatSexpr, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  // Twice: a log left behind by the first refusal would turn the second
  // into "store already exists".
  for (int attempt = 0; attempt < 2; ++attempt) {
    ASSERT_TRUE(
        client.Call(OpenReplicatedRequest("doc", 3, OldDoc(0)), &response)
            .ok());
    EXPECT_EQ(response.code(), Code::kFailedPrecondition) << response.payload;
    EXPECT_NE(response.payload.find("already attached"), std::string::npos)
        << response.payload;
  }
  EXPECT_TRUE(std::filesystem::is_empty(store_dir.path));

  ASSERT_TRUE(
      client.Call(OpenReplicatedRequest("fresh", 3, OldDoc(0)), &response)
          .ok());
  EXPECT_TRUE(response.ok()) << response.payload;
  EXPECT_TRUE(std::filesystem::exists(store_dir.path + "/fresh.r0.log"));
}

TEST(NetServerTest, OpenReplicatedWithoutStoreDirIsRefused) {
  ServerFixture fx;  // No store_dir.
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
  WireResponse response;
  ASSERT_TRUE(
      client.Call(OpenReplicatedRequest("doc", 3, OldDoc(0)), &response).ok());
  EXPECT_EQ(response.code(), Code::kFailedPrecondition) << response.payload;
}

TEST(NetServerTest, MalformedFrameGetsErrorResponseStreamSurvives) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  // Valid outer length, invalid opcode: the per-frame error tier.
  WireRequest bad;
  bad.opcode = Opcode::kPing;
  bad.request_id = 77;
  std::string bytes = EncodeRequest(bad);
  bytes[kLenPrefixBytes] = static_cast<char>(0x6E);
  ASSERT_TRUE(client.SendRaw(bytes).ok());

  WireResponse response;
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.request_id, 77u);  // Correlation survived.

  // The connection is still healthy.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, OversizedFrameAnsweredThenClosed) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  const uint32_t huge = 1u << 30;
  std::string prefix;
  for (int i = 0; i < 4; ++i) {
    prefix.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  ASSERT_TRUE(client.SendRaw(prefix).ok());

  WireResponse response;
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_FALSE(response.ok());  // The fatal tier still answers once...
  const Status eof = client.Receive(&response);
  EXPECT_FALSE(eof.ok());  // ...then the stream is closed.
}

TEST(NetServerTest, PipelinedRequestsCorrelateByRequestId) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  constexpr int kPipelined = 60;
  for (int i = 0; i < kPipelined; ++i) {
    WireRequest request;
    request.opcode = Opcode::kDiff;
    request.request_id = 1000 + static_cast<uint64_t>(i);
    request.old_doc = OldDoc(i % 7);
    request.new_doc = NewDoc(i % 7);
    ASSERT_TRUE(client.Send(request).ok());
  }
  std::unordered_map<uint64_t, bool> seen;
  for (int i = 0; i < kPipelined; ++i) {
    WireResponse response;
    ASSERT_TRUE(client.Receive(&response).ok());
    ASSERT_TRUE(response.ok()) << response.payload;
    EXPECT_FALSE(seen[response.request_id]) << "duplicate response";
    seen[response.request_id] = true;
  }
  for (int i = 0; i < kPipelined; ++i) {
    EXPECT_TRUE(seen[1000 + static_cast<uint64_t>(i)]) << "missing " << i;
  }
}

TEST(NetServerTest, ManyConcurrentConnections) {
  NetServerOptions net_options;
  net_options.num_event_threads = 2;
  ServerFixture fx(net_options);

  constexpr int kConns = 96;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kConns / 8; ++c) {
        SimpleClient client;
        if (!client.Connect("127.0.0.1", fx.server->port()).ok() ||
            !client.Ping().ok()) {
          ++failures;
          continue;
        }
        WireResponse response;
        if (!client.Diff(OldDoc(t), NewDoc(c), kFormatSexpr, &response).ok() ||
            !response.ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// Waits (bounded) for the server's connection table to reach `want`.
bool AwaitActiveConnections(const NetServer& server, size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_connections() != want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The connection table is keyed by fd number, and numbers are reused as
// soon as they are closed. CloseConnection once erased the entry *after*
// close(), so a connection accepted onto the freed number in between (on
// another event loop) lost its entry and was never answered; the
// multi-loop race itself is what ManyConcurrentConnections hits. This test
// pins the invariant deterministically on one loop, where every number is
// reused: a closed connection is unregistered before the next is accepted,
// and the client and server sockets take the two lowest free numbers,
// which are the two just freed.
TEST(NetServerTest, CloseReconnectChurnReusesFds) {
  NetServerOptions net_options;
  net_options.num_event_threads = 1;
  ServerFixture fx(net_options);

  SimpleClient anchor;  // Open across the churn: its entry must survive.
  ASSERT_TRUE(anchor.Connect("127.0.0.1", fx.server->port()).ok());
  ASSERT_TRUE(anchor.Ping().ok());

  // Serial churn: each connection is gone server-side before the next.
  int reused_fd = -1;
  for (int i = 0; i < 100; ++i) {
    SimpleClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok()) << i;
    if (i == 0) reused_fd = client.fd();
    EXPECT_EQ(client.fd(), reused_fd) << i;  // The same pair every round.
    ASSERT_TRUE(client.Ping().ok()) << i;
    client.Close();
    ASSERT_TRUE(AwaitActiveConnections(*fx.server, 1)) << i;
    ASSERT_TRUE(anchor.Ping().ok()) << i;
  }

  // Burst churn: no wait between a close and the next connect.
  for (int i = 0; i < 100; ++i) {
    SimpleClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok()) << i;
    ASSERT_TRUE(client.Ping().ok()) << i;
  }
  ASSERT_TRUE(anchor.Ping().ok());
  anchor.Close();
  EXPECT_TRUE(AwaitActiveConnections(*fx.server, 0))
      << fx.server->active_connections() << " connections left";
}

TEST(NetServerTest, ConnectionCapRejectsExtras) {
  NetServerOptions net_options;
  net_options.max_connections = 4;
  ServerFixture fx(net_options);

  std::vector<SimpleClient> clients(4);
  for (auto& c : clients) {
    ASSERT_TRUE(c.Connect("127.0.0.1", fx.server->port()).ok());
    ASSERT_TRUE(c.Ping().ok());
  }
  // The 5th connects at TCP level (the backlog accepts) but the server
  // closes it instead of serving: a request must fail, and the rejection
  // counter must move.
  SimpleClient extra;
  ASSERT_TRUE(extra.Connect("127.0.0.1", fx.server->port()).ok());
  EXPECT_FALSE(extra.Ping().ok());
  EXPECT_GE(fx.service->metrics()
                .counter("net_connections_rejected_total")
                ->Value(),
            1u);
}

TEST(NetServerTest, GracefulShutdownAnswersEveryAcceptedRequest) {
  // The no-drop regression: requests the server has ACCEPTED (decoded off
  // the socket) must each get a response — a real one if it finished
  // inside the drain window, an error response otherwise. Silence is the
  // one forbidden outcome.
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  constexpr uint64_t kRequests = 40;
  for (uint64_t i = 0; i < kRequests; ++i) {
    WireRequest request;
    request.opcode = Opcode::kDiff;
    request.request_id = i;
    request.old_doc = OldDoc(static_cast<int>(i));
    request.new_doc = NewDoc(static_cast<int>(i));
    ASSERT_TRUE(client.Send(request).ok());
  }
  // Wait until every frame is accepted (decoded), so the shutdown race is
  // exactly the one under test.
  Counter* frames = fx.service->metrics().counter("net_frames_total");
  while (frames->Value() < kRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread shutdown([&] { fx.server->Shutdown(); });
  uint64_t answered = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    WireResponse response;
    if (!client.Receive(&response).ok()) break;
    ++answered;  // OK or error — both are answers.
  }
  shutdown.join();
  EXPECT_EQ(answered, kRequests);
}

TEST(NetServerTest, DrainingConnectionsGetUnavailable) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  std::thread shutdown([&] { fx.server->Shutdown(); });
  // Frames sent during the drain are answered with kUnavailable until the
  // connection closes; either outcome is correct depending on timing, but
  // a hang is not.
  WireRequest request;
  request.opcode = Opcode::kPing;
  request.request_id = 5;
  if (client.Send(request).ok()) {
    WireResponse response;
    const Status received = client.Receive(&response);
    if (received.ok() && !response.ok()) {
      EXPECT_EQ(response.code(), Code::kUnavailable);
    }
  }
  shutdown.join();
}

}  // namespace
}  // namespace net
}  // namespace treediff
