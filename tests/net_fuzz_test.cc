// Frame-decoder fuzz tests: the decoder sits directly on untrusted network
// bytes, so it must never crash, hang, or over-allocate no matter what
// arrives — random soup, truncated frames, bit-flipped valid frames,
// hostile length fields, garbage tenant ids. Deterministic seeds keep
// failures reproducible (repo fuzz-lite idiom, cf. parser_fuzz_test.cc).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/wire.h"
#include "util/random.h"

namespace treediff {
namespace net {
namespace {

constexpr size_t kSmallMax = 4096;  // Tight cap exercises the reject path.

/// Drives the decoder over `bytes` in random-sized chunks, asserting the
/// buffered-bytes invariant after every step: the decoder may hold at most
/// one undecoded frame (cap + prefix) plus the bytes of the current append
/// burst — a hostile length field must not translate into allocation.
void DrainAll(FrameDecoder* decoder, const std::string& bytes, Rng* rng,
              size_t max_frame) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const size_t chunk =
        std::min<size_t>(1 + rng->Uniform(512), bytes.size() - offset);
    decoder->Append(bytes.data() + offset, chunk);
    offset += chunk;
    for (int spins = 0; spins < 10000; ++spins) {
      WireRequest request;
      Status error = Status::Ok();
      const DecodeResult r = decoder->NextRequest(&request, &error);
      if (r == DecodeResult::kNeedMore || r == DecodeResult::kError) break;
    }
    ASSERT_LE(decoder->buffered_bytes(),
              kLenPrefixBytes + max_frame + chunk + 512);
  }
}

TEST(NetFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(2026);
  for (int iter = 0; iter < 50; ++iter) {
    FrameDecoder decoder(kSmallMax);
    std::string soup;
    const size_t len = 256 + rng.Uniform(8192);
    soup.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      soup.push_back(static_cast<char>(rng.Uniform(256)));
    }
    DrainAll(&decoder, soup, &rng, kSmallMax);
  }
}

/// One valid request frame per opcode: the seeds the truncation and
/// bit-flip sweeps mutate.
std::vector<WireRequest> ValidFrames() {
  std::vector<WireRequest> frames;
  for (uint8_t op = 0; op < 0xFF; ++op) {
    if (!ValidOpcode(op)) continue;
    WireRequest request;
    request.opcode = static_cast<Opcode>(op);
    request.tenant = "fuzz";
    request.request_id = op;
    switch (request.opcode) {
      case Opcode::kDiff:
        request.old_doc = std::string(300, 'x');
        request.new_doc = std::string(300, 'y');
        break;
      case Opcode::kVdiff:
        request.doc_id = "some-document-id";
        request.from_version = 1;
        request.to_version = 2;
        break;
      case Opcode::kOpen:
      case Opcode::kCommit:
      case Opcode::kOpenReplicated:
        request.doc_id = "some-document-id";
        request.old_doc = "(D (P (S \"fuzz\")))";
        request.replicas = 3;
        break;
      default:
        break;
    }
    frames.push_back(std::move(request));
  }
  return frames;
}

TEST(NetFuzzTest, TruncatedValidFramesNeverCrash) {
  const std::vector<WireRequest> frames = ValidFrames();
  ASSERT_EQ(frames.size(), 8u);  // Every opcode has a seed.
  for (const WireRequest& request : frames) {
    SCOPED_TRACE("opcode " + std::to_string(request.request_id));
    const std::string full = EncodeRequest(request);
    for (size_t cut = 0; cut < full.size(); cut += 7) {
      FrameDecoder decoder;
      const std::string prefix = full.substr(0, cut);
      decoder.Append(prefix.data(), prefix.size());
      WireRequest out;
      Status error = Status::Ok();
      EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kNeedMore);
      // Completing the frame later must still decode it.
      const std::string rest = full.substr(cut);
      decoder.Append(rest.data(), rest.size());
      EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kFrame);
      EXPECT_EQ(out.opcode, request.opcode);
      EXPECT_EQ(out.doc_id, request.doc_id);
      EXPECT_EQ(out.old_doc, request.old_doc);
      EXPECT_EQ(out.replicas,
                request.opcode == Opcode::kOpenReplicated ? 3 : 0);
    }
  }
}

TEST(NetFuzzTest, BitFlippedValidFramesNeverCrashOrDesync) {
  Rng rng(31337);
  for (const WireRequest& request : ValidFrames()) {
    SCOPED_TRACE("opcode " + std::to_string(request.request_id));
    const std::string clean = EncodeRequest(request);
    for (int iter = 0; iter < 400; ++iter) {
      std::string bytes = clean;
      // Flip 1–4 random bits in the PAYLOAD. (Length-prefix corruption is
      // a different contract — it desyncs the stream by design and is
      // covered by HostileLengthsNeverAllocate; with the outer length
      // intact, a bad frame must be consumed exactly and the stream must
      // stay in sync.)
      const int flips = 1 + static_cast<int>(rng.Uniform(4));
      for (int f = 0; f < flips; ++f) {
        const size_t pos =
            kLenPrefixBytes + rng.Uniform(bytes.size() - kLenPrefixBytes);
        bytes[pos] = static_cast<char>(
            static_cast<unsigned char>(bytes[pos]) ^ (1u << rng.Uniform(8)));
      }
      FrameDecoder decoder(kSmallMax);
      decoder.Append(bytes.data(), bytes.size());
      WireRequest out;
      Status error = Status::Ok();
      const DecodeResult r = decoder.NextRequest(&out, &error);
      ASSERT_LE(decoder.buffered_bytes(), bytes.size());
      if (r == DecodeResult::kBadFrame) {
        // Consumed per-frame: a healthy frame appended after must decode.
        decoder.Append(clean.data(), clean.size());
        EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kFrame);
      }
    }
  }
}

TEST(NetFuzzTest, HostileLengthsNeverAllocate) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    FrameDecoder decoder(kSmallMax);
    // A length field chosen to be maximally annoying.
    const uint32_t len = static_cast<uint32_t>(rng.Next());
    char prefix[4];
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
    }
    decoder.Append(prefix, sizeof prefix);
    WireRequest out;
    Status error = Status::Ok();
    const DecodeResult r = decoder.NextRequest(&out, &error);
    if (len == 0 || len > kSmallMax) {
      EXPECT_EQ(r, DecodeResult::kError);
      // The guarantee under attack: nothing was buffered for the bogus
      // frame, no matter how large the declared length.
      EXPECT_EQ(decoder.buffered_bytes(), 0u);
    } else {
      EXPECT_EQ(r, DecodeResult::kNeedMore);
    }
  }
}

TEST(NetFuzzTest, GarbageTenantIdsAreContained) {
  Rng rng(555);
  for (int iter = 0; iter < 200; ++iter) {
    // Hand-build a frame with a random tenant_len byte and random tenant
    // bytes; lengths made self-consistent so only the tenant rule decides.
    const uint8_t tenant_len = static_cast<uint8_t>(rng.Uniform(256));
    std::string payload;
    payload.push_back(static_cast<char>(Opcode::kPing));
    payload.push_back(0);  // format
    payload.push_back(0);  // flags
    payload.push_back(static_cast<char>(tenant_len));
    payload.append(12, '\0');  // request_id + deadline_ms
    for (unsigned i = 0; i < tenant_len; ++i) {
      payload.push_back(static_cast<char>(rng.Uniform(256)));
    }
    std::string frame;
    const uint32_t len = static_cast<uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
    }
    frame += payload;

    FrameDecoder decoder(kSmallMax);
    decoder.Append(frame.data(), frame.size());
    WireRequest out;
    Status error = Status::Ok();
    const DecodeResult r = decoder.NextRequest(&out, &error);
    if (tenant_len <= kMaxTenantLen) {
      EXPECT_EQ(r, DecodeResult::kFrame);
      EXPECT_EQ(out.tenant.size(), tenant_len);
    } else {
      EXPECT_EQ(r, DecodeResult::kBadFrame);
    }
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(NetFuzzTest, InterleavedGoodAndEvilFramesKeepSync) {
  Rng rng(4242);
  WireRequest good;
  good.opcode = Opcode::kDiff;
  good.tenant = "t";
  good.old_doc = "(D (P (S \"a\")))";
  good.new_doc = "(D (P (S \"b\")))";
  const std::string clean = EncodeRequest(good);

  for (int iter = 0; iter < 50; ++iter) {
    FrameDecoder decoder(kSmallMax);
    std::string stream;
    int expected_good = 0;
    for (int f = 0; f < 20; ++f) {
      if (rng.Uniform(2) == 0) {
        stream += clean;
        ++expected_good;
      } else {
        // An evil-but-in-sync frame: valid outer length, corrupt body.
        std::string evil = clean;
        evil[kLenPrefixBytes] = static_cast<char>(200 + rng.Uniform(56));
        stream += evil;
      }
    }
    int decoded_good = 0;
    decoder.Append(stream.data(), stream.size());
    for (;;) {
      WireRequest out;
      Status error = Status::Ok();
      const DecodeResult r = decoder.NextRequest(&out, &error);
      if (r == DecodeResult::kNeedMore) break;
      ASSERT_NE(r, DecodeResult::kError);
      if (r == DecodeResult::kFrame) ++decoded_good;
    }
    // Per-frame containment: every good frame survived its evil neighbors.
    EXPECT_EQ(decoded_good, expected_good);
  }
}

}  // namespace
}  // namespace net
}  // namespace treediff
