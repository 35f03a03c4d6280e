#include "ir/serialize.h"

#include <charconv>
#include <functional>
#include <map>
#include <set>
#include <string_view>

#include "ir/verifier.h"

namespace portend::ir {

namespace {

/** Mnemonic lookup; std::less<> lets a string_view token find a key. */
template <typename E>
using NameTable = std::map<std::string, E, std::less<>>;

/** Opcode <-> mnemonic table (mnemonics from opName). */
NameTable<Op>
opTable()
{
    NameTable<Op> t;
    for (int i = 0; i <= static_cast<int>(Op::Assert); ++i) {
        Op op = static_cast<Op>(i);
        t[opName(op)] = op;
    }
    return t;
}

NameTable<sym::ExprKind>
kindTable()
{
    NameTable<sym::ExprKind> t;
    for (int i = 0; i <= static_cast<int>(sym::ExprKind::Ite); ++i) {
        sym::ExprKind k = static_cast<sym::ExprKind>(i);
        t[sym::kindName(k)] = k;
    }
    return t;
}

/** Append " <prefix><v>" with @p v in decimal (prefix 0: none). */
void
putNum(std::string &out, std::int64_t v, char prefix = 0)
{
    char buf[32];
    char *p = buf;
    *p++ = ' ';
    if (prefix)
        *p++ = prefix;
    const std::to_chars_result r = std::to_chars(p, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

/** Append " <operand>": r<N>, i<V> or _. */
void
putOperand(std::string &out, const Operand &o)
{
    if (o.isReg())
        putNum(out, o.reg, 'r');
    else if (o.isImm())
        putNum(out, o.imm, 'i');
    else
        out += " _";
}

/** Append " \"<s>\"" with quotes and backslashes escaped. */
void
putStr(std::string &out, const std::string &s)
{
    out += " \"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
}

/** Whitespace between tokens: the C locale's, less the newline that
 *  ends a line (so tabs and CRLF line ends parse). */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

/** One whole token, fully consumed by from_chars, in T's range. */
template <typename T>
bool
parseNum(std::string_view tok, T &out)
{
    const char *end = tok.data() + tok.size();
    const std::from_chars_result r = std::from_chars(tok.data(), end, out);
    return r.ec == std::errc() && r.ptr == end;
}

bool
parseOperand(std::string_view tok, Operand &out)
{
    if (tok == "_") {
        out = Operand();
        return true;
    }
    if (tok.size() < 2)
        return false;
    if (tok[0] == 'r') {
        Reg r = 0;
        if (!parseNum(tok.substr(1), r))
            return false;
        out = Operand::r(r);
        return true;
    }
    if (tok[0] == 'i') {
        std::int64_t v = 0;
        if (!parseNum(tok.substr(1), v))
            return false;
        out = Operand::i(v);
        return true;
    }
    return false;
}

/** Cursor over the tokens of one line. */
struct Tokens
{
    std::string_view rest;

    void
    skipSpace()
    {
        std::size_t n = 0;
        while (n < rest.size() && isSpace(rest[n]))
            n += 1;
        rest.remove_prefix(n);
    }

    /** The next whitespace-delimited token ("" at end of line). */
    std::string_view
    next()
    {
        skipSpace();
        std::size_t n = 0;
        while (n < rest.size() && !isSpace(rest[n]))
            n += 1;
        std::string_view tok = rest.substr(0, n);
        rest.remove_prefix(n);
        return tok;
    }

    /** A non-empty token. */
    bool
    word(std::string_view &out)
    {
        out = next();
        return !out.empty();
    }

    template <typename T>
    bool
    num(T &out)
    {
        return parseNum(next(), out);
    }

    /**
     * A quoted string, scanned from its opening quote to the first
     * unescaped quote; a backslash takes the next character
     * literally. The closing quote must end the token.
     */
    bool
    quoted(std::string &out)
    {
        skipSpace();
        if (rest.empty() || rest[0] != '"')
            return false;
        out.clear();
        std::size_t i = 1;
        for (;; ++i) {
            if (i >= rest.size())
                return false;
            char c = rest[i];
            if (c == '"')
                break;
            if (c == '\\' && i + 1 < rest.size())
                c = rest[++i];
            out += c;
        }
        rest.remove_prefix(i + 1);
        return rest.empty() || isSpace(rest[0]);
    }

    /** True when nothing but whitespace is left. */
    bool
    done()
    {
        skipSpace();
        return rest.empty();
    }
};

/** Splits text at '\n' (the last line may lack one). */
struct Lines
{
    std::string_view text;
    std::size_t pos = 0;

    bool
    next(std::string_view &line)
    {
        if (pos >= text.size())
            return false;
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos)
            nl = text.size();
        line = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    }
};

} // namespace

std::string
serializeProgram(const Program &p)
{
    std::string out = "pil v1";
    putStr(out, p.name);
    out += '\n';
    for (const auto &g : p.globals) {
        out += "global";
        putStr(out, g.name);
        putNum(out, g.size);
        for (std::int64_t v : g.init)
            putNum(out, v);
        out += '\n';
    }
    for (const auto &m : p.mutex_names) {
        out += "mutex";
        putStr(out, m);
        out += '\n';
    }
    for (const auto &c : p.cond_names) {
        out += "cond";
        putStr(out, c);
        out += '\n';
    }
    for (std::size_t i = 0; i < p.barrier_names.size(); ++i) {
        out += "barrier";
        putStr(out, p.barrier_names[i]);
        putNum(out, p.barrier_counts[i]);
        out += '\n';
    }
    // Input declarations are emitted only when present so programs
    // without them serialize byte-identically to the pre-declaration
    // format (on-disk corpus compatibility).
    for (const auto &d : p.inputs) {
        out += "input";
        putStr(out, d.name);
        putNum(out, d.lo);
        putNum(out, d.hi);
        out += '\n';
    }
    for (const auto &f : p.functions) {
        out += "func";
        putStr(out, f.name);
        putNum(out, f.num_params);
        putNum(out, f.num_regs);
        out += '\n';
        for (const auto &b : f.blocks) {
            out += "block";
            putStr(out, b.name);
            out += '\n';
            for (const auto &inst : b.insts) {
                out += "inst ";
                out += opName(inst.op);
                putNum(out, inst.dst);
                putOperand(out, inst.a);
                putOperand(out, inst.b);
                putOperand(out, inst.c);
                out += ' ';
                out += sym::kindName(inst.kind);
                putNum(out, widthBits(inst.width));
                putNum(out, inst.gid);
                putNum(out, inst.sid);
                putNum(out, inst.sid2);
                putNum(out, inst.fid);
                putNum(out, inst.then_block);
                putNum(out, inst.else_block);
                putNum(out, inst.lo);
                putNum(out, inst.hi);
                putStr(out, inst.text);
                putStr(out, inst.loc.file);
                putNum(out, inst.loc.line);
                out += '\n';
            }
        }
    }
    out += "end\n";
    return out;
}

std::optional<Program>
deserializeProgram(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &msg) -> std::optional<Program> {
        if (error)
            *error = msg;
        return std::nullopt;
    };

    static const NameTable<Op> ops = opTable();
    static const NameTable<sym::ExprKind> kinds = kindTable();

    // Hard bounds on declared sizes: malformed or adversarial input
    // (fuzzer-found cases) must fail cleanly, never OOM or crash.
    constexpr int kMaxGlobalSize = 1 << 20;
    constexpr int kMaxRegs = 1 << 20;
    constexpr int kMaxBarrierCount = 4096;

    Program p;
    Function *cur_func = nullptr;
    BasicBlock *cur_block = nullptr;

    std::set<std::string> global_names, mutex_names, cond_names,
        barrier_names, func_names, input_names;

    Lines lines{text};
    std::string_view line;
    int lineno = 0;
    bool saw_header = false;
    bool saw_end = false;

    while (!saw_end && lines.next(line)) {
        lineno += 1;
        if (line.empty())
            continue;
        Tokens ls{line};
        const std::string tag(ls.next());

        auto where = [&] {
            return " (line " + std::to_string(lineno) + ")";
        };

        if (!saw_header && tag != "pil")
            return fail("'" + tag + "' before 'pil v1' header" +
                        where());

        if (tag == "pil") {
            if (saw_header)
                return fail("duplicate 'pil' header" + where());
            if (ls.next() != "v1")
                return fail("unsupported version" + where());
            if (!ls.quoted(p.name))
                return fail("bad program name" + where());
            saw_header = true;
        } else if (tag == "global") {
            Global g;
            if (!ls.quoted(g.name) || !ls.num(g.size))
                return fail("bad global" + where());
            if (g.size < 1 || g.size > kMaxGlobalSize)
                return fail("global size out of range" + where());
            if (!global_names.insert(g.name).second)
                return fail("duplicate global '" + g.name + "'" +
                            where());
            while (!ls.done()) {
                std::int64_t v = 0;
                if (!ls.num(v))
                    return fail("bad global init value" + where());
                g.init.push_back(v);
            }
            if (g.init.size() > static_cast<std::size_t>(g.size))
                return fail("more init values than cells" + where());
            p.globals.push_back(std::move(g));
        } else if (tag == "mutex") {
            std::string n;
            if (!ls.quoted(n))
                return fail("bad mutex" + where());
            if (!mutex_names.insert(n).second)
                return fail("duplicate mutex '" + n + "'" + where());
            p.mutex_names.push_back(n);
        } else if (tag == "cond") {
            std::string n;
            if (!ls.quoted(n))
                return fail("bad cond" + where());
            if (!cond_names.insert(n).second)
                return fail("duplicate cond '" + n + "'" + where());
            p.cond_names.push_back(n);
        } else if (tag == "barrier") {
            std::string n;
            int count = 0;
            if (!ls.quoted(n) || !ls.num(count))
                return fail("bad barrier" + where());
            if (count < 1 || count > kMaxBarrierCount)
                return fail("barrier count out of range" + where());
            if (!barrier_names.insert(n).second)
                return fail("duplicate barrier '" + n + "'" +
                            where());
            p.barrier_names.push_back(n);
            p.barrier_counts.push_back(count);
        } else if (tag == "input") {
            InputDecl d;
            if (!ls.quoted(d.name) || !ls.num(d.lo) || !ls.num(d.hi))
                return fail("bad input declaration" + where());
            if (d.lo > d.hi)
                return fail("input domain empty" + where());
            if (!input_names.insert(d.name).second)
                return fail("duplicate input '" + d.name + "'" +
                            where());
            p.inputs.push_back(std::move(d));
        } else if (tag == "func") {
            Function f;
            if (!ls.quoted(f.name) || !ls.num(f.num_params) ||
                !ls.num(f.num_regs)) {
                return fail("bad func" + where());
            }
            if (f.num_params < 0 || f.num_regs < 0 ||
                f.num_regs > kMaxRegs || f.num_params > f.num_regs) {
                return fail("func register counts out of range" +
                            where());
            }
            if (!func_names.insert(f.name).second)
                return fail("duplicate func '" + f.name + "'" +
                            where());
            p.functions.push_back(std::move(f));
            cur_func = &p.functions.back();
            cur_block = nullptr;
        } else if (tag == "block") {
            if (!cur_func)
                return fail("block outside func" + where());
            BasicBlock b;
            if (!ls.quoted(b.name))
                return fail("bad block" + where());
            cur_func->blocks.push_back(std::move(b));
            cur_block = &cur_func->blocks.back();
        } else if (tag == "inst") {
            if (!cur_block)
                return fail("inst outside block" + where());
            Inst inst;
            std::string_view opname, ta, tb, tc, kindname;
            int width_bits = 64;
            if (!(ls.word(opname) && ls.num(inst.dst) && ls.word(ta) &&
                  ls.word(tb) && ls.word(tc) && ls.word(kindname) &&
                  ls.num(width_bits) && ls.num(inst.gid) &&
                  ls.num(inst.sid) && ls.num(inst.sid2) &&
                  ls.num(inst.fid) && ls.num(inst.then_block) &&
                  ls.num(inst.else_block) && ls.num(inst.lo) &&
                  ls.num(inst.hi))) {
                return fail("bad inst fields" + where());
            }
            auto oit = ops.find(opname);
            if (oit == ops.end())
                return fail("unknown op '" + std::string(opname) + "'" +
                            where());
            inst.op = oit->second;
            if (!parseOperand(ta, inst.a) ||
                !parseOperand(tb, inst.b) ||
                !parseOperand(tc, inst.c)) {
                return fail("bad operand" + where());
            }
            auto kit = kinds.find(kindname);
            if (kit == kinds.end())
                return fail("unknown kind" + where());
            inst.kind = kit->second;
            switch (width_bits) {
              case 1: inst.width = sym::Width::I1; break;
              case 8: inst.width = sym::Width::I8; break;
              case 16: inst.width = sym::Width::I16; break;
              case 32: inst.width = sym::Width::I32; break;
              case 64: inst.width = sym::Width::I64; break;
              default: return fail("bad width" + where());
            }
            if (inst.dst < -1)
                return fail("bad dst register" + where());
            if (!ls.quoted(inst.text) || !ls.quoted(inst.loc.file) ||
                !ls.num(inst.loc.line)) {
                return fail("bad inst strings" + where());
            }
            cur_block->insts.push_back(std::move(inst));
        } else if (tag == "end") {
            saw_end = true;
        } else {
            return fail("unknown tag '" + tag + "'" + where());
        }
        // A line holds exactly its fields: anything the serializer
        // never writes after them is an error, never skipped.
        if (!ls.done())
            return fail("trailing tokens after " + tag + where());
    }

    if (!saw_header)
        return fail("missing 'pil v1' header");
    if (!saw_end)
        return fail("missing 'end'");
    while (lines.next(line)) {
        lineno += 1;
        if (!line.empty()) {
            return fail("content after 'end' (line " +
                        std::to_string(lineno) + ")");
        }
    }
    p.entry = p.findFunction("main");
    if (p.entry < 0)
        return fail("program has no main function");
    // Structural validation before finalize: out-of-range operands,
    // dangling block/function/sync references, missing terminators —
    // a deserialized program must be as safe to execute as a
    // builder-built one.
    std::vector<std::string> errors = verifyProgram(p);
    if (!errors.empty())
        return fail("verification failed: " + errors.front());
    p.finalize();
    return p;
}

} // namespace portend::ir
