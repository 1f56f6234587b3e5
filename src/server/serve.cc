#include "src/server/serve.h"

#include "src/support/logging.h"

namespace dnsv {
namespace {

// Wire flag bits within header byte 2 (see RFC 1035 §4.1.1).
constexpr uint8_t kByte2Qr = 0x80;
constexpr uint8_t kByte2OpcodeMask = 0x78;
constexpr uint8_t kByte2Rd = 0x01;

}  // namespace

std::vector<uint8_t> BuildErrorResponse(const uint8_t* packet, size_t size, Rcode rcode,
                                        const EdnsInfo* edns) {
  // Static template: ID 0, QR set, OPCODE 0, RD 0, RCODE patched below, all
  // section counts 0. Everything else is patched from the client's bytes.
  std::vector<uint8_t> out = {0, 0, kByte2Qr, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  if (size >= 2) {
    out[0] = packet[0];
    out[1] = packet[1];
  }
  if (size >= 4) {
    // Echo the client's OPCODE and RD bit; keep QR=1, AA/TC/RA clear.
    out[2] |= packet[2] & (kByte2OpcodeMask | kByte2Rd);
  }
  out[3] = static_cast<uint8_t>(rcode) & 0xF;
  if (edns != nullptr && edns->present) {
    // RFC 6891 §7: the error response carries an OPT because the query did.
    // The rcode's high bits ride in the OPT extended-RCODE byte (BADVERS is
    // 0x10, so header nibble 0 + extended byte 1); the DO bit is echoed.
    out[11] = 1;  // ARCOUNT
    out.push_back(0);  // root owner name
    out.push_back(0);
    out.push_back(41);  // TYPE = OPT
    out.push_back(static_cast<uint8_t>(kEdnsResponderPayload >> 8));
    out.push_back(static_cast<uint8_t>(kEdnsResponderPayload & 0xFF));
    out.push_back(static_cast<uint8_t>(static_cast<unsigned>(rcode) >> 4));  // ext RCODE
    out.push_back(0);  // version
    out.push_back(edns->dnssec_ok ? 0x80 : 0);
    out.push_back(0);
    out.push_back(0);  // RDLENGTH = 0
    out.push_back(0);
  }
  return out;
}

ServeOutcome ServePacket(AuthoritativeServer* shard, const uint8_t* packet, size_t size,
                         size_t max_payload, ServerStats* stats, const ServeContext& ctx) {
  ServeOutcome outcome;
  Result<WireQuery> query = ParseWireQuery(packet, size);
  if (!query.ok()) {
    // The strict parser rejected the packet, but RFC 6891 §7 still wants the
    // error response to carry an OPT when the query had one — recover it with
    // the tolerant scanner, which never rejects.
    EdnsInfo scanned;
    ScanQueryForOpt(packet, size, &scanned);
    // RFC 1035 §4.1.1: a request whose opcode the server does not implement
    // gets NOTIMP, not FORMERR — the packet is well-formed, the operation is
    // unsupported. Detect it from the raw header: a full header arrived, QR
    // is clear (it is a request), and OPCODE != QUERY.
    if (size >= 12 && (packet[2] & kByte2Qr) == 0 &&
        ((packet[2] & kByte2OpcodeMask) >> 3) != 0) {
      outcome.not_implemented = true;
      outcome.wire = BuildErrorResponse(packet, size, Rcode::kNotImp, &scanned);
      if (stats != nullptr) {
        stats->CountRcode(static_cast<uint8_t>(Rcode::kNotImp));
      }
      return outcome;
    }
    outcome.parse_error = true;
    outcome.wire = BuildErrorResponse(packet, size, Rcode::kFormErr, &scanned);
    if (stats != nullptr) {
      stats->parse_failures.fetch_add(1, std::memory_order_relaxed);
      stats->CountRcode(static_cast<uint8_t>(Rcode::kFormErr));
    }
    return outcome;
  }

  const EdnsInfo& edns = query.value().edns;
  if (stats != nullptr && edns.present) {
    stats->edns_queries.fetch_add(1, std::memory_order_relaxed);
  }
  // RFC 6891 §6.1.3: an EDNS version we do not implement gets BADVERS with
  // our version (0) in the echoed OPT, before any engine work. The parser
  // deliberately accepts version > 0 so this answer can be addressed.
  if (edns.present && edns.version != 0) {
    outcome.badvers = true;
    outcome.wire = BuildErrorResponse(packet, size, Rcode::kBadVers, &edns);
    if (stats != nullptr) {
      // Not CountRcode: the histogram is 4-bit and would file BADVERS (16)
      // under NOERROR; the dedicated counter is the visible record.
      stats->badvers_responses.fetch_add(1, std::memory_order_relaxed);
    }
    return outcome;
  }

  // The limit every downstream stage sees: the EDNS-advertised payload on
  // UDP, the transport limit on TCP (EffectivePayloadLimit ignores the OPT
  // there — RFC 6891 §6.2.5). The cache key includes it, so a 512-byte
  // truncation can never be replayed to a 4096-byte client.
  const size_t effective = EffectivePayloadLimit(edns, max_payload);

  CacheKey cache_key;
  bool cacheable_query =
      ctx.cache != nullptr && BuildCacheKey(query.value(), effective, &cache_key);
  if (cacheable_query &&
      ctx.cache->Lookup(cache_key, ctx.generation, query.value().id, &outcome.wire, stats)) {
    outcome.cache_hit = true;
    if (stats != nullptr) {
      stats->CountRcode(outcome.wire[3] & 0xF);
    }
    return outcome;
  }

  QueryResult result = shard->Query(query.value().qname, query.value().qtype);
  ResponseView view;
  if (result.panicked) {
    // The engine crashed (a dev-version treat): answer SERVFAIL, keep serving.
    view.rcode = Rcode::kServFail;
    if (stats != nullptr) {
      stats->engine_panics.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (result.unencodable) {
    // The shard's label codes ran out for this qname: SERVFAIL, keep serving.
    view.rcode = Rcode::kServFail;
    if (stats != nullptr) {
      stats->unencodable_qnames.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    view = result.response;
  }

  Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query.value(), view, effective);
  if (!encoded.ok()) {
    // A response we cannot put on the wire (e.g. a qname that decompressed
    // past the 255-byte wire limit, so even the question echo is invalid).
    // The fallback must not be allowed to fail again — use the static
    // header-only SERVFAIL (plus OPT echo) with the client's ID/OPCODE/RD
    // patched in.
    if (stats != nullptr) {
      stats->encode_failures.fetch_add(1, std::memory_order_relaxed);
      stats->servfail_fallbacks.fetch_add(1, std::memory_order_relaxed);
      stats->CountRcode(static_cast<uint8_t>(Rcode::kServFail));
    }
    outcome.servfail_fallback = true;
    outcome.wire = BuildErrorResponse(packet, size, Rcode::kServFail, &edns);
    return outcome;
  }

  outcome.wire = std::move(encoded).value();
  DNSV_CHECK(outcome.wire.size() >= 4);
  outcome.truncated = (outcome.wire[2] & 0x02) != 0;  // TC bit of the flags word
  if (stats != nullptr) {
    if (outcome.truncated) {
      stats->truncated_responses.fetch_add(1, std::memory_order_relaxed);
    }
    stats->CountRcode(outcome.wire[3] & 0xF);
  }

  // Cache only clean answers: no TC bit (truncation is the transport's retry
  // contract), no engine panic, and an rcode the engine actually computed
  // (NOERROR / NXDOMAIN). The TTL gate rejects zero-TTL and record-free
  // responses via MinimumResponseTtl's 0 return.
  uint8_t rcode = outcome.wire[3] & 0xF;
  if (cacheable_query && !outcome.truncated && !result.panicked && !result.unencodable &&
      (rcode == static_cast<uint8_t>(Rcode::kNoError) ||
       rcode == static_cast<uint8_t>(Rcode::kNxDomain))) {
    uint32_t ttl = MinimumResponseTtl(outcome.wire);
    if (ttl > 0) {
      ctx.cache->Insert(cache_key, ctx.generation, ttl, outcome.wire, stats);
    }
  }
  return outcome;
}

Result<uint16_t> ParsePort(const std::string& text) {
  if (text.empty()) {
    return Result<uint16_t>::Error("port is empty");
  }
  uint32_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Result<uint16_t>::Error("port '" + text + "' is not a decimal number");
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
    if (value > 0xffff) {
      return Result<uint16_t>::Error("port '" + text + "' is out of range (1..65535)");
    }
  }
  if (value == 0) {
    return Result<uint16_t>::Error("port 0 is reserved (it means kernel-assigned)");
  }
  return static_cast<uint16_t>(value);
}

}  // namespace dnsv
