// Conventional unit tests for the wire codec — the component the paper
// excludes from formal verification (footnote 1) and covers by testing.
#include "src/dns/wire.h"

#include <gtest/gtest.h>

#include "src/dns/example_zones.h"
#include "src/engine/engine.h"
#include "src/support/rng.h"

namespace dnsv {
namespace {

WireQuery MakeQuery(const std::string& qname, RrType qtype, uint16_t id = 0x1234) {
  WireQuery query;
  query.id = id;
  query.qname = DnsName::Parse(qname).value();
  query.qtype = qtype;
  query.recursion_desired = true;
  return query;
}

TEST(WireQueryCodec, RoundTrip) {
  WireQuery query = MakeQuery("www.example.com", RrType::kAaaa, 0xBEEF);
  std::vector<uint8_t> packet = EncodeWireQuery(query);
  Result<WireQuery> parsed = ParseWireQuery(packet);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().id, 0xBEEF);
  EXPECT_EQ(parsed.value().qname.ToString(), "www.example.com");
  EXPECT_EQ(parsed.value().qtype, RrType::kAaaa);
  EXPECT_TRUE(parsed.value().recursion_desired);
}

TEST(WireQueryCodec, KnownBytes) {
  // Hand-checked encoding of "ab.c A IN" with id 1, RD clear.
  WireQuery query;
  query.id = 1;
  query.qname = DnsName::Parse("ab.c").value();
  query.qtype = RrType::kA;
  std::vector<uint8_t> packet = EncodeWireQuery(query);
  const uint8_t expected[] = {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,        // header
                              2, 'a', 'b', 1, 'c', 0,                    // QNAME
                              0, 1, 0, 1};                               // QTYPE, QCLASS
  ASSERT_EQ(packet.size(), sizeof(expected));
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(packet[i], expected[i]) << "byte " << i << "\n" << HexDump(packet);
  }
}

TEST(WireQueryCodec, RejectsMalformedPackets) {
  EXPECT_FALSE(ParseWireQuery({1, 2, 3}).ok());  // too short
  // QR bit set (a response, not a query).
  std::vector<uint8_t> response_bits = EncodeWireQuery(MakeQuery("a.b", RrType::kA));
  response_bits[2] |= 0x80;
  EXPECT_FALSE(ParseWireQuery(response_bits).ok());
  // Truncated name.
  std::vector<uint8_t> truncated = EncodeWireQuery(MakeQuery("abc.example", RrType::kA));
  truncated.resize(14);
  EXPECT_FALSE(ParseWireQuery(truncated).ok());
}

TEST(WireQueryCodec, RejectsCompressionLoop) {
  // Header + a name that is a pointer to itself at offset 12.
  std::vector<uint8_t> packet = {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1};
  EXPECT_FALSE(ParseWireQuery(packet).ok());
}

// --- regression: the EDNS-blind parser (ISSUE 10) ---
//
// Before the fix, ParseWireQuery stopped reading after the question: OPT
// records were silently dropped (so clients negotiated payloads the server
// never saw) and arbitrary trailing bytes were accepted. Now every byte must
// be accounted for and the additional section is parsed strictly.
TEST(WireQueryCodec, RejectsTrailingGarbageAndAnswerCounts) {
  std::vector<uint8_t> packet = EncodeWireQuery(MakeQuery("a.b", RrType::kA));
  std::vector<uint8_t> garbage = packet;
  garbage.push_back(0xde);
  Result<WireQuery> parsed = ParseWireQuery(garbage);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("trailing"), std::string::npos) << parsed.error();

  std::vector<uint8_t> answers = packet;
  answers[7] = 1;  // ANCOUNT = 1: queries carry no answer section
  EXPECT_FALSE(ParseWireQuery(answers).ok());
  std::vector<uint8_t> authority = packet;
  authority[9] = 1;  // NSCOUNT = 1
  EXPECT_FALSE(ParseWireQuery(authority).ok());
}

TEST(WireEdnsCodec, OptRoundTripsPayloadVersionAndDo) {
  WireQuery query = MakeQuery("www.example.com", RrType::kA);
  query.edns.present = true;
  query.edns.udp_payload = 1232;
  query.edns.dnssec_ok = true;
  std::vector<uint8_t> packet = EncodeWireQuery(query);
  Result<WireQuery> parsed = ParseWireQuery(packet);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value().edns.present);
  EXPECT_EQ(parsed.value().edns.udp_payload, 1232);
  EXPECT_TRUE(parsed.value().edns.dnssec_ok);
  EXPECT_EQ(parsed.value().edns.version, 0);
  EXPECT_EQ(parsed.value().edns, query.edns);
  // And the canonical form is a byte fixpoint.
  EXPECT_EQ(EncodeWireQuery(parsed.value()), packet);
}

TEST(WireEdnsCodec, KnownOptBytes) {
  // Hand-checked OPT for a 4096-payload DO query: root owner, TYPE 41,
  // CLASS = payload, TTL = ext-rcode | version | DO+Z, RDLENGTH 0.
  WireQuery query;
  query.id = 1;
  query.qname = DnsName::Parse("ab.c").value();
  query.qtype = RrType::kA;
  query.edns.present = true;
  query.edns.udp_payload = 4096;
  query.edns.dnssec_ok = true;
  std::vector<uint8_t> packet = EncodeWireQuery(query);
  const uint8_t expected[] = {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1,  // header, ARCOUNT=1
                              2, 'a', 'b', 1, 'c', 0, 0, 1, 0, 1,  // question
                              0,                                   // root owner
                              0, 41,                               // TYPE = OPT
                              0x10, 0x00,                          // CLASS = 4096
                              0, 0, 0x80, 0,                       // TTL: DO set
                              0, 0};                               // RDLENGTH = 0
  ASSERT_EQ(packet.size(), sizeof(expected));
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(packet[i], expected[i]) << "byte " << i << "\n" << HexDump(packet);
  }
}

TEST(WireEdnsCodec, SubMinimumPayloadClampsAtParseAndEncode) {
  // RFC 6891 §6.2.3: an advertisement below 512 is treated as 512. The clamp
  // lands at parse time (EdnsInfo always holds the effective value) and the
  // encoder never emits a sub-512 advertisement.
  WireQuery query = MakeQuery("a.b", RrType::kA);
  query.edns.present = true;
  query.edns.udp_payload = 100;
  std::vector<uint8_t> packet = EncodeWireQuery(query);
  Result<WireQuery> parsed = ParseWireQuery(packet);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().edns.udp_payload, kEdnsMinPayload);
}

TEST(WireEdnsCodec, RejectsMultipleOptAndNonRootOwner) {
  WireQuery query = MakeQuery("a.b", RrType::kA);
  query.edns.present = true;
  std::vector<uint8_t> packet = EncodeWireQuery(query);
  // Duplicate the 11-byte OPT tail and bump ARCOUNT: RFC 6891 §6.1.1 allows
  // at most one.
  std::vector<uint8_t> doubled = packet;
  doubled.insert(doubled.end(), packet.end() - 11, packet.end());
  doubled[11] = 2;
  Result<WireQuery> two = ParseWireQuery(doubled);
  ASSERT_FALSE(two.ok());
  EXPECT_NE(two.error().find("multiple OPT"), std::string::npos) << two.error();
  // Replace the root owner (first byte of the 11-byte OPT tail) with the
  // one-label name "x".
  ASSERT_GE(packet.size(), 11u);
  std::vector<uint8_t> nonroot(packet.begin(), packet.end() - 11);
  nonroot.insert(nonroot.end(), {1, 'x', 0});
  nonroot.insert(nonroot.end(), packet.end() - 10, packet.end());
  Result<WireQuery> named = ParseWireQuery(nonroot);
  ASSERT_FALSE(named.ok());
  EXPECT_NE(named.error().find("non-root"), std::string::npos) << named.error();
}

TEST(WireEdnsCodec, BadVersionStillParsesSoItCanBeAnswered) {
  // RFC 6891 §6.1.3: BADVERS must be *sent*, which means the parser cannot
  // reject an unknown version — the serving shell needs the query addressed.
  WireQuery query = MakeQuery("a.b", RrType::kA);
  query.edns.present = true;
  query.edns.version = 3;
  Result<WireQuery> parsed = ParseWireQuery(EncodeWireQuery(query));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().edns.version, 3);
}

TEST(WireEdnsCodec, ScanQueryForOptRecoversFromUnparseablePackets) {
  // The tolerant scanner backs the RFC 6891 §7 error paths: a FORMERR-bound
  // packet still gets its OPT echoed if one can be found.
  WireQuery query = MakeQuery("a.b", RrType::kA);
  query.edns.present = true;
  query.edns.dnssec_ok = true;
  std::vector<uint8_t> packet = EncodeWireQuery(query);
  packet.push_back(0xde);  // trailing garbage: the strict parser rejects this
  ASSERT_FALSE(ParseWireQuery(packet).ok());
  EdnsInfo scanned;
  EXPECT_TRUE(ScanQueryForOpt(packet.data(), packet.size(), &scanned));
  EXPECT_TRUE(scanned.present);
  EXPECT_TRUE(scanned.dnssec_ok);
  // And on a packet with no OPT at all, it reports absence without rejecting.
  std::vector<uint8_t> plain = EncodeWireQuery(MakeQuery("a.b", RrType::kA));
  EdnsInfo none;
  EXPECT_FALSE(ScanQueryForOpt(plain.data(), plain.size(), &none));
  EXPECT_FALSE(none.present);
}

class WireResponseTest : public ::testing::Test {
 protected:
  WireResponseTest() {
    server_ = std::move(
        AuthoritativeServer::Create(EngineVersion::kGolden, KitchenSinkZone()).value());
  }

  // Serve a query through the engine and round-trip it through the wire.
  void RoundTrip(const std::string& qname, RrType qtype) {
    WireQuery query = MakeQuery(qname, qtype);
    QueryResult result = server_->Query(query.qname, qtype);
    ASSERT_FALSE(result.panicked);
    Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query, result.response);
    ASSERT_TRUE(encoded.ok()) << encoded.error();
    const std::vector<uint8_t>& packet = encoded.value();
    WireQuery echoed;
    Result<ResponseView> parsed = ParseWireResponse(packet, &echoed);
    ASSERT_TRUE(parsed.ok()) << parsed.error() << "\n" << HexDump(packet);
    EXPECT_EQ(echoed.id, query.id);
    EXPECT_EQ(echoed.qname.ToString(), query.qname.ToString());
    EXPECT_EQ(parsed.value(), result.response)
        << "wire round-trip changed the response for " << qname << "\nbefore:\n"
        << result.response.ToString() << "after:\n" << parsed.value().ToString();
  }

  std::unique_ptr<AuthoritativeServer> server_;
};

TEST_F(WireResponseTest, RoundTripsEveryScenario) {
  RoundTrip("www.example.com", RrType::kA);          // multi-A answer
  RoundTrip("www.example.com", RrType::kAny);        // A + A + TXT
  RoundTrip("chain.example.com", RrType::kA);        // CNAME chain
  RoundTrip("example.com", RrType::kMx);             // MX + additional
  RoundTrip("example.com", RrType::kNs);             // NS + AAAA glue
  RoundTrip("deep.sub.example.com", RrType::kA);     // referral
  RoundTrip("example.com", RrType::kSoa);            // SOA rdata
  RoundTrip("missing.example.com", RrType::kA);      // NXDOMAIN + SOA authority
  RoundTrip("host.dyn.example.com", RrType::kA);     // wildcard synthesis
}

TEST_F(WireResponseTest, HeaderFlagsReflectResponse) {
  WireQuery query = MakeQuery("missing.example.com", RrType::kA);
  QueryResult result = server_->Query(query.qname, query.qtype);
  std::vector<uint8_t> packet = EncodeWireResponse(query, result.response).value();
  // QR set, AA set, RCODE = 3 (NXDOMAIN).
  EXPECT_EQ(packet[2] & 0x80, 0x80);
  EXPECT_EQ(packet[2] & 0x04, 0x04);
  EXPECT_EQ(packet[3] & 0x0F, 3);
}

TEST_F(WireResponseTest, CountsMatchSections) {
  WireQuery query = MakeQuery("deep.sub.example.com", RrType::kA);
  QueryResult result = server_->Query(query.qname, query.qtype);
  std::vector<uint8_t> packet = EncodeWireResponse(query, result.response).value();
  EXPECT_EQ((packet[4] << 8) | packet[5], 1);    // QDCOUNT
  EXPECT_EQ((packet[6] << 8) | packet[7], 0);    // ANCOUNT (referral)
  EXPECT_EQ((packet[8] << 8) | packet[9], 2);    // NSCOUNT
  EXPECT_EQ((packet[10] << 8) | packet[11], 2);  // ARCOUNT (glue)
}

// --- regression: RDLENGTH must bound the rdata exactly ---
//
// Before the fix, ReadRecord never checked that name-valued rdata consumed
// exactly RDLENGTH bytes, so a lying RDLENGTH desynchronized the reader and
// mis-parsed every subsequent record instead of failing.
TEST(WireRdlength, RejectsRecordWhoseRdataDisagreesWithRdlength) {
  // Response: header (QR set, ANCOUNT=2) + empty question + NS record whose
  // RDLENGTH claims 6 bytes but whose rdata name "ab." is only 4, followed by
  // a well-formed A record that a desynchronized reader would mis-parse.
  std::vector<uint8_t> packet = {
      0x12, 0x34, 0x80, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00,  // header
      // record 1: owner "x.", NS, IN, TTL 0, RDLENGTH 6 (lie: rdata is 4)
      0x01, 'x', 0x00, 0x00, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06,
      0x02, 'a', 'b', 0x00,
      // record 2: owner "y.", A, IN, TTL 0, RDLENGTH 4, 192.0.2.1
      0x01, 'y', 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04,
      0xC0, 0x00, 0x02, 0x01};
  WireQuery echoed;
  EXPECT_FALSE(ParseWireResponse(packet, &echoed).ok());
  // With a truthful RDLENGTH the same packet parses fine.
  packet[24] = 0x04;
  Result<ResponseView> parsed = ParseWireResponse(packet, &echoed);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().answer.size(), 2u);
  EXPECT_EQ(parsed.value().answer[1].name, "y");
  EXPECT_EQ(parsed.value().answer[1].type, RrType::kA);
}

TEST(WireRdlength, RejectsCompressedRdataNameThatOverrunsRdlength) {
  // MX rdata: 2-byte preference + a compression pointer back to the owner;
  // the pointer consumes 2 bytes, so real rdata size is 4 but RDLENGTH says 9.
  std::vector<uint8_t> packet = {
      0x00, 0x01, 0x80, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
      // owner "m." at offset 12, MX, IN, TTL 0, RDLENGTH 9
      0x01, 'm', 0x00, 0x00, 0x0F, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
      0x00, 0x0A, 0xC0, 0x0C};
  WireQuery echoed;
  EXPECT_FALSE(ParseWireResponse(packet, &echoed).ok());
  packet[24] = 0x04;  // truthful RDLENGTH
  Result<ResponseView> parsed = ParseWireResponse(packet, &echoed);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().answer.size(), 1u);
  EXPECT_EQ(parsed.value().answer[0].rdata_name, "m");
  EXPECT_EQ(parsed.value().answer[0].rdata_value, 10);
}

// --- regression: un-encodable names surface an error instead of crashing ---
//
// Before the fix, PutRecord called DnsName::Parse(...).value() on owner and
// rdata names, so a 64-byte label aborted the process mid-encode.
TEST(WireEncodeErrors, OversizedLabelIsAnErrorNotACrash) {
  WireQuery query = MakeQuery("www.example.com", RrType::kA);
  ResponseView response;
  RrView rr;
  rr.name = std::string(64, 'a') + ".example.com";  // one label over the 63-byte limit
  rr.type = RrType::kA;
  rr.rdata_value = 0x7F000001;
  response.answer.push_back(rr);
  Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query, response);
  ASSERT_FALSE(encoded.ok());
  EXPECT_NE(encoded.error().find("64"), std::string::npos) << encoded.error();

  // The same label on the rdata side of a CNAME fails too, not just owners.
  response.answer[0] = RrView{.name = "www.example.com",
                              .type = RrType::kCname,
                              .rdata_value = 0,
                              .rdata_name = std::string(64, 'b') + ".example.com"};
  EXPECT_FALSE(EncodeWireResponse(query, response).ok());

  // Wire-valid but zone-syntax-invalid names (interior '*' labels, as
  // produced by wildcard counterexamples) must encode fine.
  response.answer[0] =
      RrView{.name = "*.*.example.com", .type = RrType::kA, .rdata_value = 1, .rdata_name = ""};
  Result<std::vector<uint8_t>> wildcard = EncodeWireResponse(query, response);
  ASSERT_TRUE(wildcard.ok()) << wildcard.error();
  WireQuery echoed;
  Result<ResponseView> parsed = ParseWireResponse(wildcard.value(), &echoed);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().answer[0].name, "*.*.example.com");
}

TEST(WireEncodeErrors, NameOver255WireBytesIsRejected) {
  WireQuery query = MakeQuery("www.example.com", RrType::kA);
  ResponseView response;
  std::string deep;  // 130 labels of "aa." = 391 wire bytes
  for (int i = 0; i < 130; ++i) {
    deep += "aa.";
  }
  response.answer.push_back(
      RrView{.name = deep + "com", .type = RrType::kA, .rdata_value = 1, .rdata_name = ""});
  EXPECT_FALSE(EncodeWireResponse(query, response).ok());
}

// --- regression: truncation and count overflow ---
//
// Before the fix, section counts were silently static_cast to uint16_t (65536
// records aliased to an ANCOUNT of 0) and oversized responses went out
// untruncated with TC clear.
TEST(WireTruncation, SetsTcAndDropsWholeRecordsBackToFront) {
  WireQuery query = MakeQuery("big.example.com", RrType::kAny);
  ResponseView response;
  response.aa = true;
  for (int i = 0; i < 40; ++i) {
    // ~29 wire bytes per record: 40 records ≈ 1160 bytes, well over 512.
    response.answer.push_back(RrView{.name = "big.example.com",
                                     .type = RrType::kA,
                                     .rdata_value = 0x0A000000 + i,
                                     .rdata_name = ""});
  }
  response.authority.push_back(RrView{.name = "example.com",
                                      .type = RrType::kNs,
                                      .rdata_value = 0,
                                      .rdata_name = "ns1.example.com"});
  Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query, response);
  ASSERT_TRUE(encoded.ok()) << encoded.error();
  EXPECT_LE(encoded.value().size(), kMaxUdpPayload);
  WireQuery echoed;
  bool truncated = false;
  Result<ResponseView> parsed = ParseWireResponse(encoded.value(), &echoed, &truncated);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(truncated);
  // Back-to-front: the authority record (and trailing answers) are dropped
  // first; the surviving answers are an exact prefix.
  EXPECT_TRUE(parsed.value().authority.empty());
  ASSERT_GT(parsed.value().answer.size(), 0u);
  ASSERT_LT(parsed.value().answer.size(), 40u);
  for (size_t i = 0; i < parsed.value().answer.size(); ++i) {
    EXPECT_EQ(parsed.value().answer[i], response.answer[i]) << "answer " << i;
  }
  // Flags survive truncation.
  EXPECT_TRUE(parsed.value().aa);
  EXPECT_EQ(parsed.value().rcode, Rcode::kNoError);

  // A response that fits exactly is not truncated.
  ResponseView small;
  small.answer.push_back(response.answer[0]);
  bool small_truncated = true;
  Result<std::vector<uint8_t>> small_encoded = EncodeWireResponse(query, small);
  ASSERT_TRUE(small_encoded.ok());
  ASSERT_TRUE(ParseWireResponse(small_encoded.value(), &echoed, &small_truncated).ok());
  EXPECT_FALSE(small_truncated);
}

TEST(WireTruncation, NegotiatedLimitGovernsAndTheOptAlwaysSurvives) {
  // ISSUE 10: truncation was hardwired to 512 bytes regardless of what the
  // client advertised. Now EncodeWireResponse truncates at the caller's limit,
  // and the OPT record is budgeted for up front — it is never the record that
  // gets dropped (RFC 6891 requires the response to stay an EDNS response).
  WireQuery query = MakeQuery("big.example.com", RrType::kAny);
  query.edns.present = true;
  query.edns.udp_payload = 4096;
  ResponseView response;
  response.aa = true;
  for (int i = 0; i < 40; ++i) {
    response.answer.push_back(RrView{.name = "big.example.com",
                                     .type = RrType::kA,
                                     .rdata_value = 0x0A000000 + i,
                                     .rdata_name = ""});
  }
  size_t prev_answers = 0;
  for (size_t limit : {size_t{512}, size_t{1232}, size_t{4096}}) {
    SCOPED_TRACE(limit);
    Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query, response, limit);
    ASSERT_TRUE(encoded.ok()) << encoded.error();
    EXPECT_LE(encoded.value().size(), limit);
    WireQuery echoed;
    bool truncated = false;
    Result<ResponseView> parsed = ParseWireResponse(encoded.value(), &echoed, &truncated);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_TRUE(echoed.edns.present) << "truncation dropped the OPT";
    // A bigger advertisement keeps strictly more of the ~1160-byte answer,
    // and 4096 holds all of it.
    EXPECT_GT(parsed.value().answer.size(), prev_answers);
    prev_answers = parsed.value().answer.size();
    EXPECT_EQ(truncated, limit < 4096);
  }
  EXPECT_EQ(prev_answers, 40u);
}

TEST(WireTruncation, QuestionAloneOverLimitIsAnError) {
  WireQuery query = MakeQuery("www.example.com", RrType::kA);
  EXPECT_FALSE(EncodeWireResponse(query, ResponseView{}, /*max_size=*/16).ok());
  // 12-byte header + 17-byte question + 4 = 33 bytes is the exact floor.
  EXPECT_TRUE(EncodeWireResponse(query, ResponseView{}, /*max_size=*/33).ok());
}

TEST(WireTruncation, SectionCountOverflowIsRejected) {
  WireQuery query = MakeQuery("www.example.com", RrType::kA);
  ResponseView response;
  response.answer.resize(65536, RrView{.name = "www.example.com",
                                       .type = RrType::kA,
                                       .rdata_value = 1,
                                       .rdata_name = ""});
  Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query, response);
  ASSERT_FALSE(encoded.ok());
  EXPECT_NE(encoded.error().find("overflow"), std::string::npos) << encoded.error();
}

// --- pinned encoder output ---
//
// One FNV-1a 64 digest per engine version over EncodeWireResponse for that
// version's answers to the kitchen-sink vocabulary, at payload limits from
// below the question floor (an error) through truncation to 4096, with and
// without EDNS. Any change in bytes, TC bits, section counts or error text
// shows up here.
uint64_t EncoderDigest(EngineVersion version) {
  static const char* const kOwners[] = {
      "example.com",          "ns1.example.com",      "ns2.example.com",
      "mail.example.com",     "www.example.com",      "alias.example.com",
      "chain.example.com",    "sub.example.com",      "ns1.sub.example.com",
      "ns2.sub.example.com",  "ent.example.com",      "leaf.ent.example.com",
      "dyn.example.com",      "k3x9q.dyn.example.com", "p0.w7.dyn.example.com",
      "deep.sub.example.com", "zq81m.example.com",    "r2d2x.www.example.com",
      "v55t.ent.example.com"};
  static const RrType kTypes[] = {RrType::kA,  RrType::kAaaa, RrType::kMx, RrType::kTxt,
                                  RrType::kNs, RrType::kSoa,  RrType::kAny};
  static const size_t kLimits[] = {40, 64, 96, 128, 192, 256, 384, 512, 1232, 2048, 4096};
  std::unique_ptr<AuthoritativeServer> server =
      std::move(AuthoritativeServer::Create(version, KitchenSinkZone()).value());
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](const uint8_t* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ data[i]) * 0x100000001b3ull;
    }
    hash = (hash ^ (size & 0xff)) * 0x100000001b3ull;
  };
  uint16_t id = 0;
  for (const char* owner : kOwners) {
    for (RrType type : kTypes) {
      WireQuery query = MakeQuery(owner, type, ++id);
      query.recursion_desired = (id & 1) != 0;
      QueryResult result = server->Query(query.qname, type);
      if (result.panicked) {
        mix(reinterpret_cast<const uint8_t*>("panic"), 5);
        continue;
      }
      for (bool edns : {false, true}) {
        query.edns.present = edns;
        query.edns.udp_payload = 1232;
        query.edns.dnssec_ok = (id & 2) != 0;
        for (size_t limit : kLimits) {
          Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query, result.response, limit);
          if (encoded.ok()) {
            mix(encoded.value().data(), encoded.value().size());
          } else {
            mix(reinterpret_cast<const uint8_t*>(encoded.error().data()), encoded.error().size());
          }
        }
      }
    }
  }
  return hash;
}

TEST(WireEncoderDigest, OutputIsPinnedPerEngineVersion) {
  const std::pair<EngineVersion, uint64_t> kPinned[] = {
      {EngineVersion::kV1, 0x554c0c1dd02702caull},
      {EngineVersion::kV2, 0x6b01f0d2fbc75880ull},
      {EngineVersion::kV3, 0xf5cee5faac555cd4ull},
      {EngineVersion::kDev, 0x79307a182347cbd5ull},
      {EngineVersion::kGolden, 0xf5cee5faac555cd4ull},
      {EngineVersion::kV4, 0xf5cee5faac555cd4ull},
      {EngineVersion::kV5, 0xf5cee5faac555cd4ull},
  };
  for (const auto& [version, digest] : kPinned) {
    const uint64_t actual = EncoderDigest(version);
    EXPECT_EQ(actual, digest) << EngineVersionName(version) << std::hex << " digest 0x" << actual;
  }
}

// Error text and precedence, byte for byte: the first bad record in section
// order names its section and side; every record is checked before the size
// limit; within one name an empty label outranks an overlong one.
TEST(WireEncodeErrors, ExactTextForBadOwnerAndRdataNames) {
  WireQuery query = MakeQuery("www.example.com", RrType::kA);
  const std::string long_label(64, 'a');
  auto error_for = [&](const ResponseView& response, size_t limit = kMaxUdpPayload) {
    Result<std::vector<uint8_t>> encoded = EncodeWireResponse(query, response, limit);
    return encoded.ok() ? std::string("ok") : encoded.error();
  };
  ResponseView response;
  response.answer.push_back(RrView{.name = long_label + ".example.com",
                                   .type = RrType::kA,
                                   .rdata_value = 0,
                                   .rdata_name = ""});
  EXPECT_EQ(error_for(response),
            "cannot encode answer record: bad owner name: label of 64 bytes (wire labels are "
            "1..63) in name: " + long_label + ".example.com");
  response.answer[0] = RrView{
      .name = "www.example.com", .type = RrType::kA, .rdata_value = 0, .rdata_name = ""};
  response.authority.push_back(
      RrView{.name = "example.com", .type = RrType::kNs, .rdata_name = "ns1..example.com"});
  EXPECT_EQ(error_for(response),
            "cannot encode authority record: bad rdata name: empty label in name: "
            "ns1..example.com");
  response.authority[0].rdata_name = long_label + ".x..example.com";
  EXPECT_EQ(error_for(response),
            "cannot encode authority record: bad rdata name: empty label in name: " +
                long_label + ".x..example.com");
  response.authority[0].rdata_name = "ns1.example.com.";
  EXPECT_EQ(error_for(response),
            "cannot encode authority record: bad rdata name: empty label in name: "
            "ns1.example.com.");
  response.authority.clear();
  std::string deep;
  for (int i = 0; i < 130; ++i) {
    deep += "aa.";
  }
  response.additional.push_back(RrView{.name = "mail.example.com",
                                       .type = RrType::kMx,
                                       .rdata_value = 10,
                                       .rdata_name = deep + "com"});
  EXPECT_EQ(error_for(response),
            "cannot encode additional record: bad rdata name: name of 395 wire bytes (limit "
            "255): " + deep + "com");
  // A bad record outranks a limit the header and question alone overflow.
  EXPECT_EQ(error_for(response, 16).substr(0, 31), "cannot encode additional record");
  response.additional.clear();
  EXPECT_EQ(error_for(response, 16),
            "header and question alone need 33 bytes, over the limit of 16");
  // The root owner and an SOA with a root target are valid.
  response.answer[0] =
      RrView{.name = ".", .type = RrType::kSoa, .rdata_value = 7, .rdata_name = ""};
  EXPECT_EQ(error_for(response), "ok");
  response.answer[0].name = "";
  EXPECT_EQ(error_for(response), "ok");
}

TEST(WireHexDump, Formats) {
  std::vector<uint8_t> data = {0x00, 0xff, 0x10};
  EXPECT_EQ(HexDump(data), "00 ff 10\n");
}


// Fuzz-lite: arbitrary bytes must never crash the parser (it may reject).
TEST(WireFuzz, RandomBytesNeverCrash) {
  SplitMix64 rng(0xF00D);
  int accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    size_t size = rng.NextBelow(64);
    std::vector<uint8_t> packet(size);
    for (uint8_t& byte : packet) {
      byte = static_cast<uint8_t>(rng.NextBelow(256));
    }
    Result<WireQuery> query = ParseWireQuery(packet);
    accepted += query.ok() ? 1 : 0;
    WireQuery echoed;
    (void)ParseWireResponse(packet, &echoed);
  }
  // Random bytes almost never form a valid query; mostly this asserts we
  // survived 2000 packets without UB.
  EXPECT_LT(accepted, 100);
}

// Mutation fuzz: flip bytes of a VALID response packet; parsing must never
// crash and whatever parses must re-encode without tripping invariants.
TEST(WireFuzz, MutatedResponsesNeverCrash) {
  auto server = std::move(
      AuthoritativeServer::Create(EngineVersion::kGolden, KitchenSinkZone()).value());
  WireQuery query = MakeQuery("chain.example.com", RrType::kA);
  QueryResult result = server->Query(query.qname, query.qtype);
  std::vector<uint8_t> base = EncodeWireResponse(query, result.response).value();
  SplitMix64 rng(0xBAD);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> packet = base;
    int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      packet[rng.NextBelow(packet.size())] = static_cast<uint8_t>(rng.NextBelow(256));
    }
    WireQuery echoed;
    (void)ParseWireResponse(packet, &echoed);
  }
  SUCCEED();
}

// --- RFC 1035 §4.2.2 TCP framing ----------------------------------------

TEST(TcpFraming, AppendPrefixesTheBigEndianLength) {
  std::vector<uint8_t> stream;
  std::vector<uint8_t> message = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(AppendTcpFrame(&stream, message).ok());
  ASSERT_EQ(stream.size(), 6u);
  EXPECT_EQ(stream[0], 0x00);
  EXPECT_EQ(stream[1], 0x04);
  EXPECT_EQ(std::vector<uint8_t>(stream.begin() + 2, stream.end()), message);

  // Frames append back to back on the same stream.
  ASSERT_TRUE(AppendTcpFrame(&stream, {0x42}).ok());
  ASSERT_EQ(stream.size(), 9u);
  EXPECT_EQ(stream[6], 0x00);
  EXPECT_EQ(stream[7], 0x01);
  EXPECT_EQ(stream[8], 0x42);
}

TEST(TcpFraming, RejectsMessagesTheLengthFieldCannotExpress) {
  std::vector<uint8_t> stream;
  std::vector<uint8_t> too_big(kMaxTcpPayload + 1, 0xAA);
  EXPECT_FALSE(AppendTcpFrame(&stream, too_big).ok());
  EXPECT_TRUE(stream.empty()) << "a failed append must not leave partial bytes";
  std::vector<uint8_t> exactly_max(kMaxTcpPayload, 0xAA);
  EXPECT_TRUE(AppendTcpFrame(&stream, exactly_max).ok());
  EXPECT_EQ(stream.size(), 2u + kMaxTcpPayload);
}

TEST(TcpFraming, DecoderReassemblesAcrossArbitrarySplitPoints) {
  std::vector<uint8_t> message(300);
  for (size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<uint8_t>(i);
  }
  std::vector<uint8_t> stream;
  ASSERT_TRUE(AppendTcpFrame(&stream, message).ok());

  // Every split point, including mid-length-prefix, yields the same message.
  for (size_t split = 0; split <= stream.size(); ++split) {
    TcpFrameDecoder decoder;
    std::vector<uint8_t> out;
    decoder.Feed(stream.data(), split);
    bool early = decoder.Next(&out);
    EXPECT_EQ(early, split == stream.size()) << "split at " << split;
    if (!early) {
      decoder.Feed(stream.data() + split, stream.size() - split);
      ASSERT_TRUE(decoder.Next(&out)) << "split at " << split;
    }
    EXPECT_EQ(out, message) << "split at " << split;
    EXPECT_FALSE(decoder.Next(&out));
  }
}

TEST(TcpFraming, DecoderYieldsPipelinedMessagesInOrder) {
  std::vector<uint8_t> stream;
  ASSERT_TRUE(AppendTcpFrame(&stream, {0x01}).ok());
  ASSERT_TRUE(AppendTcpFrame(&stream, {0x02, 0x02}).ok());
  ASSERT_TRUE(AppendTcpFrame(&stream, {0x03, 0x03, 0x03}).ok());
  TcpFrameDecoder decoder;
  // Byte-at-a-time feeding: the worst-case fragmentation.
  for (uint8_t byte : stream) {
    decoder.Feed(&byte, 1);
  }
  std::vector<uint8_t> out;
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, std::vector<uint8_t>({0x01}));
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, std::vector<uint8_t>({0x02, 0x02}));
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, std::vector<uint8_t>({0x03, 0x03, 0x03}));
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(TcpFraming, ZeroLengthFrameIsAValidEmptyMessage) {
  // A 0-length frame is wire-legal; the serving layer treats the empty
  // message as a parse failure, but the decoder must hand it through rather
  // than stall the stream.
  std::vector<uint8_t> stream = {0x00, 0x00};
  ASSERT_TRUE(AppendTcpFrame(&stream, {0x07}).ok());
  TcpFrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::vector<uint8_t> out = {0xFF};
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, std::vector<uint8_t>({0x07}));
}

TEST(TcpFraming, RoundTripsARealDnsAnswerThatUdpMustTruncate) {
  auto server = std::move(
      AuthoritativeServer::Create(EngineVersion::kGolden, WideRrsetZone()).value());
  WireQuery query = MakeQuery("www.example.com", RrType::kA);
  QueryResult result = server->Query(query.qname, query.qtype);
  ASSERT_FALSE(result.panicked);

  // Over UDP the 40-record answer truncates; over TCP framing it must not.
  std::vector<uint8_t> udp = EncodeWireResponse(query, result.response).value();
  EXPECT_TRUE((udp[2] & 0x02) != 0) << "expected TC=1 at the UDP clamp";
  std::vector<uint8_t> full =
      EncodeWireResponse(query, result.response, kMaxTcpPayload).value();
  EXPECT_GT(full.size(), kMaxUdpPayload);

  std::vector<uint8_t> stream;
  ASSERT_TRUE(AppendTcpFrame(&stream, full).ok());
  TcpFrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::vector<uint8_t> out;
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, full);
  bool truncated = true;
  WireQuery echoed;
  Result<ResponseView> view = ParseWireResponse(out, &echoed, &truncated);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_FALSE(truncated);
  EXPECT_EQ(view.value().answer.size(), 40u);
}

}  // namespace
}  // namespace dnsv
