#include "ir/serialize.h"

#include <array>
#include <charconv>
#include <cstring>
#include <set>
#include <string_view>

#include "ir/verifier.h"

namespace portend::ir {

namespace {

/**
 * Mnemonic -> enumerator by open addressing: the token's length and
 * first and last characters pick a slot, and a probe compares whole
 * names. kSlots exceeds every enumeration's size, so a probe always
 * reaches an empty slot.
 */
template <typename E>
class NameTable
{
  public:
    /** Enumerators 0 .. @p last, named by @p name. */
    NameTable(E last, const char *(*name)(E))
    {
        for (int i = 0; i <= static_cast<int>(last); ++i) {
            const E e = static_cast<E>(i);
            std::size_t s = slot(name(e));
            while (!names[s].empty())
                s = (s + 1) % kSlots;
            names[s] = name(e);
            values[s] = e;
        }
    }

    /** The enumerator named @p tok, or null. */
    const E *
    find(std::string_view tok) const
    {
        if (tok.empty())
            return nullptr;
        for (std::size_t s = slot(tok); !names[s].empty();
             s = (s + 1) % kSlots) {
            if (names[s] == tok)
                return &values[s];
        }
        return nullptr;
    }

  private:
    static constexpr std::size_t kSlots = 64;

    static std::size_t
    slot(std::string_view n)
    {
        return (n.size() * 37 + static_cast<unsigned char>(n.front()) * 7 +
                static_cast<unsigned char>(n.back())) %
               kSlots;
    }

    std::array<std::string_view, kSlots> names{};
    std::array<E, kSlots> values{};
};

/**
 * One line's unquoted fields, written into a fixed buffer and
 * appended to the output at once. The widest line, an inst, needs
 * under 400 bytes: 14 numbers of at most 22 characters, with their
 * separators, and two mnemonics.
 */
struct LineBuf
{
    char buf[512];
    char *p = buf;

    void
    put(std::string_view s)
    {
        std::memcpy(p, s.data(), s.size());
        p += s.size();
    }

    /** " <prefix><v>" with @p v in decimal (prefix 0: none). */
    void
    num(std::int64_t v, char prefix = 0)
    {
        *p++ = ' ';
        if (prefix)
            *p++ = prefix;
        p = std::to_chars(p, buf + sizeof buf, v).ptr;
    }

    /** " <operand>": r<N>, i<V> or _. */
    void
    operand(const Operand &o)
    {
        if (o.isReg())
            num(o.reg, 'r');
        else if (o.isImm())
            num(o.imm, 'i');
        else
            put(" _");
    }

    void
    flush(std::string &out)
    {
        out.append(buf, p);
        p = buf;
    }
};

/** Append " <v>" in decimal. */
void
putNum(std::string &out, std::int64_t v)
{
    LineBuf l;
    l.num(v);
    l.flush(out);
}

/** Append " \"<s>\"" with quotes and backslashes escaped; the runs
 *  between them are appended whole. */
void
putStr(std::string &out, std::string_view s)
{
    out += " \"";
    for (;;) {
        const std::size_t at = s.find_first_of("\"\\");
        out.append(s.substr(0, at));
        if (at == std::string_view::npos)
            break;
        out += '\\';
        out += s[at];
        s.remove_prefix(at + 1);
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

    /** A number token, read in one pass: std::from_chars must stop
     *  where the token ends (the rule parseNum states). */
    template <typename T>
    bool
    num(T &out)
    {
        skipSpace();
        const char *end = rest.data() + rest.size();
        const std::from_chars_result r =
            std::from_chars(rest.data(), end, out);
        if (r.ec != std::errc() || (r.ptr != end && !isSpace(*r.ptr)))
            return false;
        rest.remove_prefix(static_cast<std::size_t>(r.ptr - rest.data()));
        return true;
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
        for (;;) {
            const std::size_t at = rest.find_first_of("\"\\", i);
            if (at == std::string_view::npos)
                return false;
            out.append(rest.substr(i, at - i));
            if (rest[at] == '"') {
                i = at;
                break;
            }
            if (at + 1 >= rest.size()) {
                // A trailing backslash is taken as itself; the
                // string still lacks its closing quote.
                return false;
            }
            out += rest[at + 1];
            i = at + 2;
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

    /** How many of the next lines start with @p prefix, up to the
     *  first that does not (a capacity hint; nothing is consumed). */
    std::size_t
    countAhead(std::string_view prefix) const
    {
        std::size_t n = 0;
        for (std::size_t at = pos;
             at < text.size() && text.compare(at, prefix.size(), prefix) == 0;
             n += 1) {
            at = text.find('\n', at);
            if (at == std::string_view::npos)
                return n + 1;
            at += 1;
        }
        return n;
    }
};

} // namespace

std::string
serializeProgram(const Program &p)
{
    std::size_t insts = 0;
    for (const auto &f : p.functions)
        for (const auto &b : f.blocks)
            insts += b.insts.size();
    // An inst line is ~110 bytes (lo and hi are mostly INT64_MIN and
    // INT64_MAX); the other lines are few.
    std::string out;
    out.reserve(256 + 120 * insts);
    out += "pil v1";
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
    LineBuf l;
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
                l.put("inst ");
                l.put(opName(inst.op));
                l.num(inst.dst);
                l.operand(inst.a);
                l.operand(inst.b);
                l.operand(inst.c);
                l.put(" ");
                l.put(sym::kindName(inst.kind));
                l.num(widthBits(inst.width));
                l.num(inst.gid);
                l.num(inst.sid);
                l.num(inst.sid2);
                l.num(inst.fid);
                l.num(inst.then_block);
                l.num(inst.else_block);
                l.num(inst.lo);
                l.num(inst.hi);
                l.flush(out);
                putStr(out, inst.text);
                putStr(out, inst.loc.file);
                l.num(inst.loc.line);
                l.put("\n");
                l.flush(out);
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

    static const NameTable<Op> ops(Op::Assert, opName);
    static const NameTable<sym::ExprKind> kinds(sym::ExprKind::Ite,
                                                sym::kindName);

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
        const std::string_view tag = ls.next();

        auto where = [&] {
            return " (line " + std::to_string(lineno) + ")";
        };

        // Inst lines are nearly all of a program's text, so they are
        // tested for first. One without a block fails below: before
        // the header as any line before it, after it as an inst
        // outside a block.
        if (tag == "inst" && cur_block) {
            Inst &inst = cur_block->insts.emplace_back();
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
            const Op *op = ops.find(opname);
            if (!op)
                return fail("unknown op '" + std::string(opname) + "'" +
                            where());
            inst.op = *op;
            if (!parseOperand(ta, inst.a) ||
                !parseOperand(tb, inst.b) ||
                !parseOperand(tc, inst.c)) {
                return fail("bad operand" + where());
            }
            const sym::ExprKind *kind = kinds.find(kindname);
            if (!kind)
                return fail("unknown kind" + where());
            inst.kind = *kind;
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
        } else if (!saw_header && tag != "pil") {
            return fail("'" + std::string(tag) +
                        "' before 'pil v1' header" + where());
        } else if (tag == "inst") {
            return fail("inst outside block" + where());
        } else if (tag == "pil") {
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
            cur_block->insts.reserve(lines.countAhead("inst "));
        } else if (tag == "end") {
            saw_end = true;
        } else {
            return fail("unknown tag '" + std::string(tag) + "'" +
                        where());
        }
        // A line holds exactly its fields: anything the serializer
        // never writes after them is an error, never skipped.
        if (!ls.done())
            return fail("trailing tokens after " + std::string(tag) +
                        where());
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
