#include <gtest/gtest.h>

#include <cstdint>

#include "support/arena.h"
#include "support/diagnostics.h"
#include "support/result.h"
#include "support/source_manager.h"
#include "support/strings.h"

namespace fsdep {
namespace {

TEST(Strings, SplitKeepsEmptyPieces) {
  const auto pieces = splitString("a,,b,", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
  EXPECT_EQ(pieces[3], "");
}

TEST(Strings, SplitSinglePiece) {
  const auto pieces = splitString("hello", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "hello");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trimString("  x  "), "x");
  EXPECT_EQ(trimString("\t\nabc\r "), "abc");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
  EXPECT_EQ(joinStrings({"solo"}, ","), "solo");
}

TEST(Strings, ParseInt64Decimal) {
  EXPECT_EQ(parseInt64("42"), 42);
  EXPECT_EQ(parseInt64("-17"), -17);
  EXPECT_EQ(parseInt64("+5"), 5);
  EXPECT_EQ(parseInt64(" 99 "), 99);
}

TEST(Strings, ParseInt64HexAndOctal) {
  EXPECT_EQ(parseInt64("0x10"), 16);
  EXPECT_EQ(parseInt64("0XFF"), 255);
  EXPECT_EQ(parseInt64("010"), 8);
  EXPECT_EQ(parseInt64("0"), 0);
}

TEST(Strings, ParseInt64Malformed) {
  EXPECT_FALSE(parseInt64("").has_value());
  EXPECT_FALSE(parseInt64("abc").has_value());
  EXPECT_FALSE(parseInt64("12x").has_value());
  EXPECT_FALSE(parseInt64("-").has_value());
  EXPECT_FALSE(parseInt64("0x").has_value());
  EXPECT_FALSE(parseInt64("99999999999999999999999").has_value());
}

TEST(Strings, FormatWithCommas) {
  EXPECT_EQ(formatWithCommas(0), "0");
  EXPECT_EQ(formatWithCommas(999), "999");
  EXPECT_EQ(formatWithCommas(1000), "1,000");
  EXPECT_EQ(formatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(formatWithCommas(-45000), "-45,000");
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(formatPercent(0.078), "7.8%");
  EXPECT_EQ(formatPercent(1.0), "100.0%");
  EXPECT_EQ(formatPercent(0.0), "0.0%");
}

TEST(SourceManager, RegistersAndFindsBuffers) {
  SourceManager sm;
  const FileId a = sm.addBuffer("a.c", "int x;\n");
  const FileId b = sm.addBuffer("b.c", "int y;\n");
  EXPECT_NE(a.value, b.value);
  EXPECT_EQ(sm.name(a), "a.c");
  EXPECT_EQ(sm.contents(b), "int y;\n");
  EXPECT_EQ(sm.findByName("a.c").value, a.value);
  EXPECT_FALSE(sm.findByName("missing.c").valid());
}

TEST(SourceManager, LineText) {
  SourceManager sm;
  const FileId f = sm.addBuffer("f.c", "line one\nline two\r\nline three");
  EXPECT_EQ(sm.lineText(f, 1), "line one");
  EXPECT_EQ(sm.lineText(f, 2), "line two");
  EXPECT_EQ(sm.lineText(f, 3), "line three");
  EXPECT_EQ(sm.lineText(f, 4), "");
  EXPECT_EQ(sm.lineText(f, 0), "");
}

TEST(SourceManager, FormatLoc) {
  SourceManager sm;
  const FileId f = sm.addBuffer("x.c", "abc");
  EXPECT_EQ(formatLoc(sm, SourceLoc{f, 3, 7}), "x.c:3:7");
  EXPECT_EQ(formatLoc(sm, SourceLoc{}), "<unknown>");
}

TEST(Diagnostics, CountsErrors) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.hasErrors());
  diags.warning(SourceLoc{}, "meh");
  EXPECT_FALSE(diags.hasErrors());
  diags.error(SourceLoc{}, "boom");
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_EQ(diags.errorCount(), 1u);
  diags.clear();
  EXPECT_FALSE(diags.hasErrors());
  EXPECT_TRUE(diags.diagnostics().empty());
}

TEST(Diagnostics, RenderIncludesCaret) {
  SourceManager sm;
  const FileId f = sm.addBuffer("t.c", "int bad~;\n");
  DiagnosticEngine diags;
  diags.error(SourceLoc{f, 1, 8}, "unexpected character");
  const std::string rendered = diags.render(sm);
  EXPECT_NE(rendered.find("t.c:1:8: error: unexpected character"), std::string::npos);
  EXPECT_NE(rendered.find("int bad~;"), std::string::npos);
  EXPECT_NE(rendered.find("^"), std::string::npos);
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> bad = makeError("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_THROW((void)bad.value(), std::runtime_error);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r(std::string("payload"));
  const std::string taken = std::move(r).take();
  EXPECT_EQ(taken, "payload");
}

TEST(Arena, SmallArenaReservesLittle) {
  Arena arena;
  arena.allocate(100, 8);
  EXPECT_EQ(arena.bytesUsed(), 100u);
  EXPECT_LE(arena.bytesReserved(), 4096u);
}

// Block sizes double from the first block, so everything reserved before
// the newest block is at most what was handed out (these 8-byte objects
// pack the power-of-two blocks exactly), and the newest block is at
// most that plus the first block.
TEST(Arena, ReservedStaysWithinTwiceUsedPlusTheFirstBlock) {
  Arena arena;
  for (std::uint64_t i = 0; i < 40000; ++i) {
    arena.make<std::uint64_t>(i);
    ASSERT_LE(arena.bytesReserved(), 2 * arena.bytesUsed() + Arena::kFirstBlockSize)
        << "after " << i + 1 << " objects";
  }
  // Growth stops at the cap: 320,000 bytes need 7 doubling blocks
  // (127 KiB) plus 3 capped ones.
  EXPECT_EQ(arena.blockCount(), 10u);
  EXPECT_EQ(arena.bytesReserved(), 127 * 1024 + 3 * Arena::kMaxBlockSize);
}

TEST(Arena, OversizedRequestGetsOneDedicatedBlock) {
  Arena arena;
  arena.allocate(16, 8);
  const std::size_t big = 3 * Arena::kMaxBlockSize;
  void* storage = arena.allocate(big, 8);
  ASSERT_NE(storage, nullptr);
  EXPECT_EQ(arena.blockCount(), 2u);
  EXPECT_EQ(arena.bytesReserved(), Arena::kFirstBlockSize + big);
  // Small requests keep bumping in the block that was current.
  arena.allocate(16, 8);
  EXPECT_EQ(arena.blockCount(), 2u);
  EXPECT_EQ(arena.bytesUsed(), 32 + big);
}

TEST(Arena, ResetKeepsOnlyTheFirstBlock) {
  Arena arena;
  for (int i = 0; i < 1000; ++i) arena.allocate(100, 8);
  EXPECT_GT(arena.blockCount(), 1u);
  arena.reset();
  EXPECT_EQ(arena.blockCount(), 1u);
  EXPECT_EQ(arena.bytesReserved(), Arena::kFirstBlockSize);
  EXPECT_EQ(arena.bytesUsed(), 0u);
  arena.allocate(100, 8);
  EXPECT_EQ(arena.blockCount(), 1u);
}

}  // namespace
}  // namespace fsdep
