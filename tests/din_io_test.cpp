#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "memx/trace/din_io.hpp"
#include "memx/trace/generators.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

TEST(DinIo, WritesLabelsAndHexAddresses) {
  Trace t;
  t.push(readRef(0x1a2b));
  t.push(writeRef(0xff));
  EXPECT_EQ(toDinString(t), "0 1a2b\n1 ff\n");
}

TEST(DinIo, RoundTripsAddressesAndTypes) {
  const Trace original = randomTrace(0, 1 << 20, 500, 11);
  const Trace parsed = fromDinString(toDinString(original), 4);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].addr, original[i].addr);
    EXPECT_EQ(parsed[i].type, original[i].type);
  }
}

TEST(DinIo, PreservesIfetchLabel) {
  const Trace t = fromDinString("2 400\n");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].type, AccessType::Instr);
  EXPECT_EQ(t[0].addr, 0x400u);
}

TEST(DinIo, IfetchRoundTrips) {
  Trace original;
  original.push(instrRef(0x1000));
  original.push(readRef(0x20));
  original.push(instrRef(0x1004));
  original.push(writeRef(0x24));
  EXPECT_EQ(toDinString(original), "2 1000\n0 20\n2 1004\n1 24\n");
  const Trace parsed = fromDinString(toDinString(original));
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].addr, original[i].addr);
    EXPECT_EQ(parsed[i].type, original[i].type);
  }
}

TEST(DinIo, IfetchIsReadLikeInTraceCounts) {
  const Trace t = fromDinString("2 0\n0 4\n1 8\n");
  EXPECT_EQ(t.readCount(), 2u);
  EXPECT_EQ(t.writeCount(), 1u);
}

TEST(DinIo, SkipsBlankAndCommentLines) {
  const Trace t = fromDinString("# header\n\n0 10\n   \n1 20 # inline\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x10u);
  EXPECT_EQ(t[1].addr, 0x20u);
  EXPECT_EQ(t[1].type, AccessType::Write);
}

TEST(DinIo, StampsRequestedSize) {
  const Trace t = fromDinString("0 0\n", 8);
  EXPECT_EQ(t[0].size, 8u);
}

TEST(DinIo, RejectsMalformedInput) {
  EXPECT_THROW(fromDinString("9 10\n"), ContractViolation);   // bad label
  EXPECT_THROW(fromDinString("0\n"), ContractViolation);      // no addr
  EXPECT_THROW(fromDinString("0 zzz\n"), ContractViolation);  // bad hex
  EXPECT_THROW(fromDinString("0 10", 0), ContractViolation);  // bad size
}

TEST(DinIo, RejectsSignedAddresses) {
  // A stoull-style parse accepts "-1" and wraps it to 2^64 - 1 — a
  // silently corrupt trace. Signs are not hex digits; reject them.
  EXPECT_THROW(fromDinString("0 -1\n"), ContractViolation);
  EXPECT_THROW(fromDinString("1 -ff\n"), ContractViolation);
  EXPECT_THROW(fromDinString("0 +10\n"), ContractViolation);
}

TEST(DinIo, RejectsTrailingGarbage) {
  // Extra tokens used to be silently dropped, turning a column
  // misalignment into a wrong-but-plausible trace.
  EXPECT_THROW(fromDinString("0 10 20\n"), ContractViolation);
  EXPECT_THROW(fromDinString("1 ff extra\n"), ContractViolation);
  // ... but a comment after the address is fine.
  EXPECT_EQ(fromDinString("0 10 # fine\n").size(), 1u);
}

TEST(DinIo, RejectsNonNumericLabelLinesInsteadOfSkipping) {
  // Garbage-label lines were silently skipped (`>> int` fails, line
  // dropped), hiding trace corruption. They now throw.
  EXPECT_THROW(fromDinString("r 10\n"), ContractViolation);
  EXPECT_THROW(fromDinString("load 10\n"), ContractViolation);
  EXPECT_THROW(fromDinString("-1 10\n"), ContractViolation);
  EXPECT_THROW(fromDinString("+1 10\n"), ContractViolation);
}

TEST(DinIo, RejectsAddressOverflow) {
  // 17 significant hex digits cannot fit 64 bits.
  EXPECT_THROW(fromDinString("0 10000000000000000\n"), ContractViolation);
  // Leading zeros are not significant.
  const Trace t = fromDinString("0 000000000000000000ff\n");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].addr, 0xffu);
  // The full 64-bit range round-trips (a 1-byte access at the top
  // address ends on the last byte; a wider one would wrap).
  const Trace big = fromDinString("0 ffffffffffffffff\n", 1);
  EXPECT_EQ(big[0].addr, 0xffffffffffffffffull);
}

TEST(DinIo, RejectsReferencesThatRunPastTheTopOfMemory) {
  // A 4-byte access at 2^64 - 2 would end at byte 2^64 + 1: its span
  // wraps, so the line is rejected with its number rather than decoded
  // into a reference that probes no line.
  try {
    (void)fromDinString("0 fffffffffffffffe\n", 4);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parseDinLine("0 fffffffffffffffe", 1, 4),
               ContractViolation);
  // The canonical fast path hands the line to parseDinLine, which names
  // it; so does the slow path (the 0x prefix is non-canonical).
  for (const char* text : {"0 10\n1 fffffffffffffffd\n",
                           "0 10\n1 0xfffffffffffffffd\n"}) {
    try {
      (void)fromDinString(text, 4);
      FAIL() << "expected ContractViolation for " << text;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }

  // Spans that end exactly on the last byte are accepted.
  const Trace top = fromDinString("0 ffffffffffffffff\n", 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].addr, 0xffffffffffffffffull);
  const Trace word = fromDinString("2 fffffffffffffffc\n", 4);
  ASSERT_EQ(word.size(), 1u);
  EXPECT_EQ(word[0].addr, 0xfffffffffffffffcull);
}

TEST(DinIo, AcceptsHexPrefix) {
  const Trace t = fromDinString("0 0x1f\n1 0XFF\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x1fu);
  EXPECT_EQ(t[1].addr, 0xffu);
  EXPECT_THROW(fromDinString("0 0x\n"), ContractViolation);  // prefix only
}

TEST(DinIo, ErrorsNameTheLine) {
  try {
    (void)fromDinString("0 10\n1 20\n0 bad!\n");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(DinIo, WhitespaceVariantsAccepted) {
  const Trace t = fromDinString("0\t1f\n  1    2A\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x1fu);
  EXPECT_EQ(t[1].addr, 0x2au);
}

TEST(DinIo, EmptyInputYieldsEmptyTrace) {
  EXPECT_TRUE(fromDinString("").empty());
}

TEST(DinIo, PropertyRandomTracesRoundTripBitIdentically) {
  // din carries (label, address); refSize is stamped on parse. Any
  // trace of word accesses must survive writeDin -> readDin exactly,
  // across the full 64-bit address range.
  std::mt19937_64 rng(123);
  for (int iter = 0; iter < 25; ++iter) {
    Trace original;
    const std::size_t n = 1 + rng() % 300;
    for (std::size_t i = 0; i < n; ++i) {
      // Vary magnitude so small, medium and near-2^64 addresses all
      // appear.
      const std::uint64_t addr = rng() >> (rng() % 64);
      const std::uint32_t pick = rng() % 3;
      const AccessType type = pick == 0   ? AccessType::Read
                              : pick == 1 ? AccessType::Write
                                          : AccessType::Instr;
      original.push(MemRef{addr, 4, type});
    }
    const Trace parsed = fromDinString(toDinString(original), 4);
    ASSERT_EQ(parsed.size(), original.size()) << "iter " << iter;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      ASSERT_EQ(parsed[i].addr, original[i].addr) << "iter " << iter;
      ASSERT_EQ(parsed[i].type, original[i].type) << "iter " << iter;
      ASSERT_EQ(parsed[i].size, 4u) << "iter " << iter;
    }
  }
}

TEST(DinIo, StreamInterface) {
  std::istringstream is("0 1\n1 2\n");
  const Trace t = readDin(is);
  EXPECT_EQ(t.size(), 2u);
  std::ostringstream os;
  writeDin(os, t);
  EXPECT_EQ(os.str(), "0 1\n1 2\n");
}

// --- Streamed decoder vs parseDinLine --------------------------------------

/// What decoding one din text produced: the references, the lines
/// consumed, and the error text if decoding stopped on a malformed line.
struct Decoded {
  std::vector<MemRef> refs;
  std::size_t lineNo = 0;
  std::string error;
};

/// The oracle: split the text as getline would (a final line without a
/// newline still counts) and run parseDinLine over each line.
Decoded decodeLineByLine(const std::string& text) {
  Decoded out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    ++out.lineNo;
    try {
      if (auto ref = parseDinLine(
              std::string_view(text).substr(start, end - start),
              out.lineNo)) {
        out.refs.push_back(*ref);
      }
    } catch (const ContractViolation& e) {
      out.error = e.what();
      return out;
    }
    start = end + 1;
  }
  return out;
}

/// DinStreamSource::fill in pulls of `pull` references.
Decoded decodeByFill(const std::string& text, std::size_t pull) {
  std::istringstream is(text);
  DinStreamSource source(is);
  Decoded out;
  std::vector<MemRef> buf(pull);
  try {
    for (;;) {
      const std::size_t got = source.fill(buf.data(), pull);
      out.refs.insert(out.refs.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(got));
      if (got < pull) break;
    }
    EXPECT_EQ(source.fill(buf.data(), pull), 0u) << "exhausted must stay so";
  } catch (const ContractViolation& e) {
    out.error = e.what();
  }
  out.lineNo = source.lineNo();
  return out;
}

/// DinStreamSource::next, one reference at a time.
Decoded decodeByNext(const std::string& text) {
  std::istringstream is(text);
  DinStreamSource source(is);
  Decoded out;
  try {
    while (auto ref = source.next()) out.refs.push_back(*ref);
  } catch (const ContractViolation& e) {
    out.error = e.what();
  }
  out.lineNo = source.lineNo();
  return out;
}

/// A din line, canonical or (with probability `mutateOdds`) mutated in
/// one of the ways real traces differ from `<label> <hex>`: most
/// mutations stay valid, some are errors.
std::string dinLine(std::mt19937_64& rng, unsigned mutateOdds) {
  static const char kHex[] = "0123456789abcdef";
  std::string label(1, static_cast<char>('0' + rng() % 3));
  std::string digits;
  const std::size_t n = 1 + rng() % 16;
  for (std::size_t i = 0; i < n; ++i) digits += kHex[rng() % 16];
  std::string sep = " ";
  std::string tail;
  if (rng() % 100 < mutateOdds) {
    switch (rng() % 15) {
      case 0: sep.clear(); break;                          // dropped space
      case 1: tail = " # note"; break;                     // comment
      case 2: tail = "\r"; break;                          // CRLF
      case 3: sep = "\t"; break;                           // tab
      case 4: digits = "0x" + digits; break;               // prefix
      case 5: digits = "1" + std::string(16, 'f'); break;  // 17th digit
      case 6: digits = "00" + digits; break;               // leading zeros
      case 7: label = "3"; break;                          // bad label
      case 8: label = "r"; break;                          // bad label
      case 9: tail = " 5"; break;                          // trailing token
      case 10: return "# comment line";
      case 11: return "";
      case 12: return "  " + label + "  " + digits + "  ";
      case 13: digits.clear(); break;                      // no address
      default: digits = "0X" + digits; break;
    }
  }
  return label + sep + digits + tail;
}

void expectSameDecode(const std::string& text, std::size_t pull,
                      const std::string& what) {
  SCOPED_TRACE(what);
  const Decoded want = decodeLineByLine(text);
  for (const Decoded& got : {decodeByFill(text, pull), decodeByNext(text)}) {
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.lineNo, want.lineNo);
    // A throwing fill drops the references of the pull it threw in, so
    // on error the streamed references are a prefix of the oracle's.
    if (want.error.empty()) {
      ASSERT_EQ(got.refs.size(), want.refs.size());
    } else {
      ASSERT_LE(got.refs.size(), want.refs.size());
    }
    for (std::size_t i = 0; i < got.refs.size(); ++i) {
      ASSERT_EQ(got.refs[i], want.refs[i]) << "ref " << i;
    }
  }
}

TEST(DinStreamDifferential, MutatedTextDecodesLikeParseDinLine) {
  std::mt19937_64 rng(20261017);
  for (int iter = 0; iter < 300; ++iter) {
    std::string text;
    const std::size_t lines = rng() % 200;
    for (std::size_t i = 0; i < lines; ++i) {
      text += dinLine(rng, 10);
      text += '\n';
    }
    if (rng() % 3 == 0 && !text.empty()) text.pop_back();  // no last '\n'
    expectSameDecode(text, 1 + rng() % 64, "iter " + std::to_string(iter));
  }
}

TEST(DinStreamDifferential, BlockBoundariesAndLongLines) {
  constexpr std::size_t kBlock = DinStreamSource::kBlockBytes;
  std::mt19937_64 rng(42);
  // Valid mutations only, so decoding runs past several block
  // boundaries, each straddled by whatever line lands on it.
  std::string valid;
  while (valid.size() < 3 * kBlock + 100) {
    std::string line = dinLine(rng, 30);
    try {
      (void)parseDinLine(line, 1);
    } catch (const ContractViolation&) {
      continue;
    }
    valid += line + '\n';
  }
  expectSameDecode(valid, 1000, "straddling lines");
  expectSameDecode(valid.substr(0, valid.size() - 1), 77,
                   "straddling lines, no last newline");
  // Every offset of one line across the first block boundary.
  for (std::size_t shift = 0; shift < 24; ++shift) {
    const std::string pad(kBlock - 12 + shift, '\n');
    expectSameDecode(pad + "1 0123456789abcdef\n2 7\n", 3,
                     "shift " + std::to_string(shift));
  }
  // A line longer than the block: a valid one (leading zeros) and a
  // malformed one after a block's worth of good lines.
  const std::string longValid = "0 " + std::string(kBlock + 500, '0') + "ff";
  expectSameDecode("0 10\n" + longValid + "\n1 20\n", 4, "long valid line");
  expectSameDecode(valid + "# " + std::string(2 * kBlock, 'x') + "\n0 1\n", 64,
                   "long comment line");
  expectSameDecode(valid + "0 " + std::string(kBlock, '1') + "\n", 64,
                   "long malformed line");
  expectSameDecode(valid + "1 ff extra\n0 1\n", 500,
                   "error in a later block");
  // Degenerate inputs.
  expectSameDecode("", 8, "empty");
  expectSameDecode("\n", 8, "one blank line");
  expectSameDecode("0 1", 8, "one line, no newline");
  expectSameDecode("0 1\n1", 8, "bad last line, no newline");
}

}  // namespace
}  // namespace memx
