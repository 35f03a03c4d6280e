/**
 * @file
 * Adversarial parser tests for ir::deserializeProgram and
 * replay::ScheduleTrace::deserialize, seeded with shapes the fuzzing
 * subsystem surfaced: truncated lines, duplicate names, out-of-range
 * sizes and operands, trailing junk. Malformed input must fail with
 * nullopt/error — never crash, never OOM, never yield a program that
 * is unsafe to execute. A deterministic mutation fuzz over valid
 * serializations backstops the hand-written cases.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/generator.h"
#include "ir/serialize.h"
#include "ir/verifier.h"
#include "replay/trace.h"
#include "support/rng.h"
#include "support/str.h"
#include "workloads/registry.h"

namespace portend {
namespace {

std::string
validProgramText()
{
    return ir::serializeProgram(
        workloads::buildWorkload("dcl").program);
}

/** Expect a parse failure and a non-empty diagnostic. */
void
expectReject(const std::string &text, const char *why)
{
    std::string error;
    std::optional<ir::Program> p =
        ir::deserializeProgram(text, &error);
    EXPECT_FALSE(p.has_value()) << why;
    EXPECT_FALSE(error.empty()) << why;
}

TEST(ProgramParserRobustness, RejectsStructuralGarbage)
{
    expectReject("", "empty input");
    expectReject("pil v1 \"x\"\n", "missing end");
    expectReject("global \"g\" 1\npil v1 \"x\"\nend\n",
                 "content before header");
    expectReject("pil v1 \"x\"\npil v1 \"y\"\nend\n",
                 "duplicate header");
    expectReject("pil v2 \"x\"\nend\n", "unsupported version");
    expectReject("pil v1 \"x\"\nwat \"z\"\nend\n", "unknown tag");
    expectReject("pil v1 \"x\"\nend\ntrailing junk\n",
                 "content after end");
    expectReject("pil v1 \"x\"\nend\n", "no main function");
}

TEST(ProgramParserRobustness, RejectsBadDeclarations)
{
    const std::string h = "pil v1 \"x\"\n";
    expectReject(h + "global \"g\" 0\nend\n", "zero-size global");
    expectReject(h + "global \"g\" -4\nend\n", "negative global");
    expectReject(h + "global \"g\" 9999999999\nend\n",
                 "huge global");
    expectReject(h + "global \"g\" 1 1 2 3\nend\n",
                 "more init values than cells");
    expectReject(h + "global \"g\" 2 1 x\nend\n",
                 "non-numeric init value");
    expectReject(h + "global \"g\" 1\nglobal \"g\" 1\nend\n",
                 "duplicate global");
    expectReject(h + "mutex \"m\"\nmutex \"m\"\nend\n",
                 "duplicate mutex");
    expectReject(h + "cond \"c\"\ncond \"c\"\nend\n",
                 "duplicate cond");
    expectReject(h + "barrier \"b\" 0\nend\n", "zero barrier count");
    expectReject(h + "barrier \"b\" 2\nbarrier \"b\" 2\nend\n",
                 "duplicate barrier");
    expectReject(h + "input \"n\"\nend\n", "input missing domain");
    expectReject(h + "input \"n\" 0\nend\n", "input missing hi");
    expectReject(h + "input \"n\" 0 x\nend\n",
                 "non-numeric input bound");
    expectReject(h + "input \"n\" 5 2\nend\n", "empty input domain");
    expectReject(h + "input \"n\" 0 4\ninput \"n\" 0 4\nend\n",
                 "duplicate input");
    expectReject(h + "input \"n\" 0 4 9\nend\n",
                 "trailing tokens after input");
    expectReject(h + "func \"f\" 2 1\nend\n",
                 "params exceed registers");
    expectReject(h + "func \"f\" -1 4\nend\n", "negative params");
    expectReject(h + "func \"f\" 0 99999999\nend\n", "huge regs");
    expectReject(h + "func \"f\" 0 1\nfunc \"f\" 0 1\nend\n",
                 "duplicate func");
    expectReject(h + "block \"b\"\nend\n", "block outside func");
    expectReject(h + "inst Nop -1 _ _ _ add 64\nend\n",
                 "inst outside block");
}

TEST(ProgramParserRobustness, RejectsBadInstructions)
{
    const std::string pre = "pil v1 \"x\"\nglobal \"g\" 1\n"
                            "func \"main\" 0 2\nblock \"entry\"\n";
    expectReject(pre + "inst Halt\nend\n", "truncated inst line");
    expectReject(pre + "inst Bogus -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "unknown opcode");
    expectReject(pre + "inst Halt -1 _ _ _ add 63 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "bad width");
    expectReject(pre + "inst Halt -1 _ _ _ wat 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "unknown ALU kind");
    expectReject(pre + "inst Halt -5 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "bad dst register");
    expectReject(pre + "inst Halt -1 q7 _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "bad operand token");
    expectReject(pre + "inst Halt -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0 junk\nend\n",
                 "trailing tokens");
    // Structurally invalid but syntactically fine: the embedded
    // verifier must reject it (out-of-range register / global).
    expectReject(pre + "inst Load 9 i0 _ _ add 64 0 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\n"
                       "inst Halt -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "verifier: dst out of range");
    expectReject(pre + "inst Load 1 i0 _ _ add 64 7 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\n"
                       "inst Halt -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "verifier: dangling global id");
    expectReject(pre + "inst Jmp -1 _ _ _ add 64 -1 -1 -1 -1 5 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "verifier: dangling block target");
}

/** A valid program with one line of every kind. */
std::vector<std::string>
everyLineKind()
{
    return {"pil v1 \"x\"",
            "global \"g\" 2 1",
            "mutex \"m\"",
            "cond \"c\"",
            "barrier \"b\" 2",
            "input \"n\" 0 4",
            "func \"main\" 0 1",
            "block \"entry\"",
            "inst halt -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"\" "
            "\"\" 0",
            "end"};
}

/** Expect a parse failure whose diagnostic contains @p want. */
void
expectRejectWith(const std::string &text, const std::string &want)
{
    std::string error;
    EXPECT_FALSE(ir::deserializeProgram(text, &error).has_value())
        << want;
    EXPECT_NE(error.find(want), std::string::npos)
        << "want '" << want << "', got '" << error << "'";
}

TEST(ProgramParserRobustness, RejectsABadLastGlobalInitValue)
{
    std::string error;
    std::optional<ir::Program> p = ir::deserializeProgram(
        join(everyLineKind(), "\n") + "\n", &error);
    ASSERT_TRUE(p.has_value()) << error;
    EXPECT_EQ(p->globals.at(0).init, std::vector<std::int64_t>{1});

    // An overflowing or sign-only last value is an error, not the
    // end of the line.
    for (const char *bad : {"99999999999999999999", "-"}) {
        std::vector<std::string> lines = everyLineKind();
        lines[1] += std::string(" ") + bad;
        expectRejectWith(join(lines, "\n") + "\n",
                         "bad global init value (line 2)");
    }
}

TEST(ProgramParserRobustness, RejectsTrailingTokensOnEveryLine)
{
    const std::vector<std::string> base = everyLineKind();
    for (std::size_t i = 0; i < base.size(); ++i) {
        std::vector<std::string> lines = base;
        lines[i] += " junk";
        const std::string tag = lines[i].substr(0, lines[i].find(' '));
        // A global line's extra tokens are init values.
        const std::string want =
            tag == "global" ? "bad global init value"
                            : "trailing tokens after " + tag;
        expectRejectWith(join(lines, "\n") + "\n",
                         want + " (line " + std::to_string(i + 1) +
                             ")");
    }
}

TEST(ProgramParserRobustness, RejectsNumbersThatAreNotWholeTokens)
{
    // A number is one whole token: no leading '+', and nothing run
    // into it. The serializer writes neither form.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"global \"g\" +2 1", "bad global"},
        {"global \"g\" 2 +1", "bad global init value"},
        {"global \"g\" 2 1-2", "bad global init value"},
        {"barrier \"b\" 2x", "bad barrier"},
        {"input \"n\" 0 +4", "bad input declaration"},
        {"func \"main\" 0 1x", "bad func"},
        {"inst halt -1_ _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"\" \"\" 0",
         "bad inst fields"},
        {"inst halt +1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"\" \"\" 0",
         "bad inst fields"},
        {"inst halt -1 r0x _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"\" \"\" 0",
         "bad operand"},
        {"inst halt -1 i+5 _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"\" \"\" 0",
         "bad operand"},
        {"inst halt -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"\" \"\" 0x",
         "bad inst strings"},
        // A quoted string must end its token too.
        {"block \"entry\"x", "bad block"},
    };
    const std::vector<std::string> base = everyLineKind();
    for (const auto &[line, want] : cases) {
        std::vector<std::string> lines = base;
        const std::string tag = line.substr(0, line.find(' '));
        for (std::string &l : lines)
            if (l.compare(0, tag.size() + 1, tag + " ") == 0)
                l = line;
        expectRejectWith(join(lines, "\n") + "\n", want);
    }
}

TEST(ProgramParserRobustness, AcceptsTabsAndCrlfLineEnds)
{
    std::string text = join(everyLineKind(), "\r\n") + "\r\n";
    for (char &c : text)
        if (c == ' ')
            c = '\t';
    std::string error;
    std::optional<ir::Program> p = ir::deserializeProgram(text, &error);
    ASSERT_TRUE(p.has_value()) << error;
    EXPECT_EQ(ir::serializeProgram(*p),
              join(everyLineKind(), "\n") + "\n");
}

TEST(ProgramParserRobustness, CrlfSeedCorpusParsesToTheSamePrograms)
{
    int entries = 0;
    for (const auto &dir : std::filesystem::directory_iterator(
             PORTEND_SEED_CORPUS)) {
        std::ifstream in(dir.path() / "program.pil", std::ios::binary);
        ASSERT_TRUE(in) << dir.path();
        std::ostringstream os;
        os << in.rdbuf();
        const std::string text = os.str();
        std::string crlf;
        for (char c : text) {
            if (c == '\n')
                crlf += '\r';
            crlf += c;
        }
        std::string error;
        std::optional<ir::Program> a =
            ir::deserializeProgram(text, &error);
        ASSERT_TRUE(a.has_value()) << dir.path() << ": " << error;
        std::optional<ir::Program> b =
            ir::deserializeProgram(crlf, &error);
        ASSERT_TRUE(b.has_value()) << dir.path() << ": " << error;
        EXPECT_EQ(ir::serializeProgram(*a), text) << dir.path();
        EXPECT_EQ(ir::serializeProgram(*b), text) << dir.path();
        entries += 1;
    }
    EXPECT_GT(entries, 0);
}

TEST(ProgramParserRobustness, AcceptsItsOwnOutput)
{
    std::string text = validProgramText();
    std::string error;
    std::optional<ir::Program> p =
        ir::deserializeProgram(text, &error);
    ASSERT_TRUE(p.has_value()) << error;
    EXPECT_EQ(ir::serializeProgram(*p), text);
}

TEST(ProgramParserRobustness, SurvivesDeterministicMutationFuzz)
{
    // 400 mutants of three valid serializations (a paper workload,
    // a generated fuzz program, and an input-declaring extension
    // workload): every parse must either fail cleanly or produce a
    // verifier-clean program that round-trips.
    std::vector<std::string> bases = {
        validProgramText(),
        ir::serializeProgram(
            fuzz::generateProgram(42, 2, fuzz::GeneratorOptions{})
                .program),
        ir::serializeProgram(
            workloads::buildWorkload("ibuf").program),
    };
    Rng rng(6);
    for (int iter = 0; iter < 400; ++iter) {
        std::string text = bases[iter % bases.size()];
        switch (rng.below(4)) {
          case 0: // truncate
            text = text.substr(0, rng.below(text.size() + 1));
            break;
          case 1: { // delete a line
            std::vector<std::string> lines = split(text, '\n');
            lines.erase(lines.begin() +
                        static_cast<std::ptrdiff_t>(
                            rng.below(lines.size())));
            text = join(lines, "\n");
            break;
          }
          case 2: { // duplicate a line
            std::vector<std::string> lines = split(text, '\n');
            std::size_t i = rng.below(lines.size());
            lines.insert(lines.begin() +
                             static_cast<std::ptrdiff_t>(i),
                         lines[i]);
            text = join(lines, "\n");
            break;
          }
          default: { // clobber a character
            if (!text.empty()) {
                std::size_t i = rng.below(text.size());
                text[i] = static_cast<char>('!' + rng.below(90));
            }
            break;
          }
        }
        std::string error;
        std::optional<ir::Program> p =
            ir::deserializeProgram(text, &error);
        if (p) {
            // Anything accepted must be safe: verifier-clean (the
            // parser runs it) and serializable again.
            EXPECT_TRUE(ir::verifyProgram(*p).empty());
            EXPECT_FALSE(ir::serializeProgram(*p).empty());
        } else {
            EXPECT_FALSE(error.empty());
        }
    }
}

TEST(TraceParserRobustness, RejectsMalformedTraces)
{
    using replay::ScheduleTrace;
    EXPECT_FALSE(ScheduleTrace::deserialize("").has_value());
    EXPECT_FALSE(ScheduleTrace::deserialize("not a trace").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize("trace v2\n").has_value());
    const std::string h = "trace v1\n";
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "z 1 2 3").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d 1 2").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d 1 2 3 4").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d -1 2 3").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d 1 -7 3").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d x 2 3").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "i 1 0").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "i 7 0 5").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "i 1 -9 5").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "i 0 0 5 9").has_value());
}

TEST(TraceParserRobustness, AcceptsItsOwnOutput)
{
    replay::ScheduleTrace t;
    t.decisions.push_back({2, 17, 5});
    t.decisions.push_back({0, -1, 9});
    rt::VmState::EnvRead r;
    r.symbolic = true;
    r.sym_id = 0;
    r.value = 3;
    t.inputs.push_back(r);
    auto back = replay::ScheduleTrace::deserialize(t.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == t);
}

} // namespace
} // namespace portend
