#include "sym/expr.h"

#include <sstream>

#include "support/hash.h"
#include "support/logging.h"

namespace portend::sym {

const char *
kindName(ExprKind k)
{
    switch (k) {
      case ExprKind::Const: return "const";
      case ExprKind::Symbol: return "sym";
      case ExprKind::Neg: return "neg";
      case ExprKind::BNot: return "bnot";
      case ExprKind::LNot: return "lnot";
      case ExprKind::Add: return "add";
      case ExprKind::Sub: return "sub";
      case ExprKind::Mul: return "mul";
      case ExprKind::SDiv: return "sdiv";
      case ExprKind::SRem: return "srem";
      case ExprKind::And: return "and";
      case ExprKind::Or: return "or";
      case ExprKind::Xor: return "xor";
      case ExprKind::Shl: return "shl";
      case ExprKind::AShr: return "ashr";
      case ExprKind::LShr: return "lshr";
      case ExprKind::Eq: return "eq";
      case ExprKind::Ne: return "ne";
      case ExprKind::Slt: return "slt";
      case ExprKind::Sle: return "sle";
      case ExprKind::Sgt: return "sgt";
      case ExprKind::Sge: return "sge";
      case ExprKind::LAnd: return "land";
      case ExprKind::LOr: return "lor";
      case ExprKind::Ite: return "ite";
    }
    return "?";
}

std::int64_t
Expr::truncate(std::int64_t v, Width w)
{
    switch (w) {
      case Width::I1: return v & 1;
      case Width::I8: return static_cast<std::int8_t>(v);
      case Width::I16: return static_cast<std::int16_t>(v);
      case Width::I32: return static_cast<std::int32_t>(v);
      case Width::I64: return v;
    }
    return v;
}

std::int64_t
Expr::applyUnary(ExprKind k, std::int64_t a, Width w)
{
    switch (k) {
      case ExprKind::Neg:
        return truncate(-a, w);
      case ExprKind::BNot:
        return truncate(~a, w);
      case ExprKind::LNot:
        return a == 0 ? 1 : 0;
      default:
        PORTEND_PANIC("applyUnary on non-unary kind ", kindName(k));
    }
}

std::int64_t
Expr::applyBinary(ExprKind k, std::int64_t a, std::int64_t b, Width w)
{
    const int bits = widthBits(w);
    const std::uint64_t ua = static_cast<std::uint64_t>(a);
    switch (k) {
      case ExprKind::Add:
        return truncate(static_cast<std::int64_t>(
                            ua + static_cast<std::uint64_t>(b)), w);
      case ExprKind::Sub:
        return truncate(static_cast<std::int64_t>(
                            ua - static_cast<std::uint64_t>(b)), w);
      case ExprKind::Mul:
        return truncate(static_cast<std::int64_t>(
                            ua * static_cast<std::uint64_t>(b)), w);
      case ExprKind::SDiv:
        // Division by zero is checked by the interpreter before
        // reaching here; define it anyway so evaluation is total.
        if (b == 0)
            return 0;
        if (a == INT64_MIN && b == -1)
            return truncate(INT64_MIN, w);
        return truncate(a / b, w);
      case ExprKind::SRem:
        if (b == 0)
            return 0;
        if (a == INT64_MIN && b == -1)
            return 0;
        return truncate(a % b, w);
      case ExprKind::And:
        return truncate(a & b, w);
      case ExprKind::Or:
        return truncate(a | b, w);
      case ExprKind::Xor:
        return truncate(a ^ b, w);
      case ExprKind::Shl:
        if (b < 0 || b >= bits)
            return 0;
        return truncate(static_cast<std::int64_t>(ua << b), w);
      case ExprKind::AShr:
        if (b < 0)
            return 0;
        if (b >= bits)
            return a < 0 ? -1 : 0;
        return truncate(a >> b, w);
      case ExprKind::LShr: {
        if (b < 0 || b >= bits)
            return 0;
        std::uint64_t mask = bits == 64
                                 ? ~0ull
                                 : ((1ull << bits) - 1);
        return truncate(
            static_cast<std::int64_t>((ua & mask) >> b), w);
      }
      case ExprKind::Eq: return a == b ? 1 : 0;
      case ExprKind::Ne: return a != b ? 1 : 0;
      case ExprKind::Slt: return a < b ? 1 : 0;
      case ExprKind::Sle: return a <= b ? 1 : 0;
      case ExprKind::Sgt: return a > b ? 1 : 0;
      case ExprKind::Sge: return a >= b ? 1 : 0;
      case ExprKind::LAnd: return (a != 0 && b != 0) ? 1 : 0;
      case ExprKind::LOr: return (a != 0 || b != 0) ? 1 : 0;
      default:
        PORTEND_PANIC("applyBinary on non-binary kind ", kindName(k));
    }
}

ExprPtr
Expr::make(ExprKind k, Width w, std::initializer_list<ExprPtr> children)
{
    auto node = std::make_shared<Expr>(Key{}, k, w);
    bool concrete = k != ExprKind::Symbol;
    std::uint64_t h = hashCombine(static_cast<std::uint64_t>(k),
                                  static_cast<std::uint64_t>(w));
    for (const ExprPtr &c : children) {
        concrete = concrete && c->isConcrete();
        h = hashCombine(h, c->hash());
        node->kids[node->nkids++] = c;
    }
    node->concrete_ = concrete;
    node->hash_ = h;
    return node;
}

ExprPtr
Expr::constant(std::int64_t v, Width w)
{
    const auto make = [](std::int64_t val, Width width) {
        auto node = std::make_shared<Expr>(Key{}, ExprKind::Const, width);
        node->cval = truncate(val, width);
        node->concrete_ = true;
        node->hash_ = hashCombine(
            hashCombine(static_cast<std::uint64_t>(ExprKind::Const),
                        static_cast<std::uint64_t>(width)),
            static_cast<std::uint64_t>(node->cval));
        return node;
    };

    // Small I64 constants are interned: nodes are immutable and
    // compared structurally, so sharing one canonical node per value
    // turns the hottest boxing sites (concrete values crossing into
    // expression-typed interfaces) into a refcount bump.
    constexpr std::int64_t kLo = -256, kHi = 1025;
    if (w == Width::I64 && v >= kLo && v < kHi) {
        static const std::vector<ExprPtr> interned = [&make] {
            std::vector<ExprPtr> t;
            t.reserve(static_cast<std::size_t>(kHi - kLo));
            for (std::int64_t i = kLo; i < kHi; ++i)
                t.push_back(make(i, Width::I64));
            return t;
        }();
        return interned[static_cast<std::size_t>(v - kLo)];
    }
    return make(v, w);
}

ExprPtr
Expr::boolean(bool b)
{
    return constant(b ? 1 : 0, Width::I1);
}

ExprPtr
Expr::symbol(const std::string &name, int id, Width w, std::int64_t lo,
             std::int64_t hi)
{
    PORTEND_ASSERT(lo <= hi, "symbol domain empty for ", name);
    auto node = std::make_shared<Expr>(Key{}, ExprKind::Symbol, w);
    node->sym_id = id;
    node->sym_name = name;
    node->sym_lo = lo;
    node->sym_hi = hi;
    node->concrete_ = false;
    node->hash_ = hashCombine(
        hashCombine(static_cast<std::uint64_t>(ExprKind::Symbol),
                    static_cast<std::uint64_t>(w)),
        static_cast<std::uint64_t>(id));
    return node;
}

bool
Expr::isConstEq(std::int64_t v) const
{
    return kind_ == ExprKind::Const && cval == v;
}

std::int64_t
Expr::constValue() const
{
    PORTEND_ASSERT(kind_ == ExprKind::Const, "constValue on ",
                   kindName(kind_));
    return cval;
}

bool
Expr::equals(const Expr &o) const
{
    if (this == &o)
        return true;
    if (kind_ != o.kind_ || width_ != o.width_ || hash_ != o.hash_)
        return false;
    switch (kind_) {
      case ExprKind::Const:
        return cval == o.cval;
      case ExprKind::Symbol:
        return sym_id == o.sym_id;
      default:
        if (nkids != o.nkids)
            return false;
        for (int i = 0; i < nkids; ++i) {
            if (!kids[i]->equals(*o.kids[i]))
                return false;
        }
        return true;
    }
}

std::int64_t
Expr::evaluate(const Model &m) const
{
    switch (kind_) {
      case ExprKind::Const:
        return cval;
      case ExprKind::Symbol:
        return truncate(m.lookup(sym_id), width_);
      case ExprKind::Neg:
      case ExprKind::BNot:
      case ExprKind::LNot:
        return applyUnary(kind_, kids[0]->evaluate(m), width_);
      case ExprKind::Ite:
        return kids[0]->evaluate(m) != 0 ? kids[1]->evaluate(m)
                                         : kids[2]->evaluate(m);
      default:
        return applyBinary(kind_, kids[0]->evaluate(m),
                           kids[1]->evaluate(m), width_);
    }
}

void
Expr::collectSymbols(std::set<int> &out) const
{
    if (kind_ == ExprKind::Symbol) {
        out.insert(sym_id);
        return;
    }
    for (int i = 0; i < nkids; ++i)
        kids[i]->collectSymbols(out);
}

void
Expr::collectSymbolNodes(std::map<int, ExprPtr> &out) const
{
    if (kind_ == ExprKind::Symbol) {
        out.emplace(sym_id, shared_from_this());
        return;
    }
    for (int i = 0; i < nkids; ++i)
        kids[i]->collectSymbolNodes(out);
}

std::string
Expr::toString() const
{
    std::ostringstream os;
    switch (kind_) {
      case ExprKind::Const:
        os << cval;
        break;
      case ExprKind::Symbol:
        os << sym_name << "#" << sym_id;
        break;
      default: {
        os << "(" << kindName(kind_);
        for (int i = 0; i < nkids; ++i)
            os << " " << kids[i]->toString();
        os << ")";
        break;
      }
    }
    return os.str();
}

// The factory bodies for Expr::unary / Expr::binary / Expr::ite live
// in simplify.cc together with the rewrite rules they apply.

} // namespace portend::sym
