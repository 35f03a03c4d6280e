/**
 * @file
 * Immutable symbolic expression DAG.
 *
 * This is the repository's analogue of KLEE's expression language:
 * runtime values in the interpreter are expression nodes, which are
 * either fully concrete (a Const node) or mention symbolic inputs
 * (Symbol nodes). Constructing through the factory functions applies
 * constant folding, so the invariant holds that an expression with no
 * symbols is always a single Const node.
 *
 * Expressions are immutable and shared via ExprPtr; copying an
 * execution state shares nodes safely.
 */

#ifndef PORTEND_SYM_EXPR_H
#define PORTEND_SYM_EXPR_H

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace portend::sym {

class Expr;

/** Shared handle to an immutable expression node. */
using ExprPtr = std::shared_ptr<const Expr>;

/** Bit width of an expression; I1 is the boolean width. */
enum class Width : std::uint8_t { I1 = 1, I8 = 8, I16 = 16, I32 = 32,
                                  I64 = 64 };

/** Number of bits in @p w. */
inline int
widthBits(Width w)
{
    return static_cast<int>(w);
}

/** Expression node kinds. */
enum class ExprKind : std::uint8_t {
    Const,      ///< literal value
    Symbol,     ///< symbolic input
    // Unary.
    Neg,        ///< two's complement negation
    BNot,       ///< bitwise not
    LNot,       ///< logical not (i1)
    // Binary arithmetic / bitwise.
    Add, Sub, Mul, SDiv, SRem,
    And, Or, Xor, Shl, AShr, LShr,
    // Comparisons (result width I1).
    Eq, Ne, Slt, Sle, Sgt, Sge,
    // Logical connectives over I1.
    LAnd, LOr,
    // Ternary.
    Ite,        ///< if-then-else select
};

/** Human-readable operator name. */
const char *kindName(ExprKind k);

/** Assignment of concrete values to symbol ids. */
struct Model
{
    /** Symbol id → concrete value. */
    std::map<int, std::int64_t> values;

    /** Value bound to @p sym_id, or 0 when unbound. */
    std::int64_t
    lookup(int sym_id) const
    {
        auto it = values.find(sym_id);
        return it == values.end() ? 0 : it->second;
    }
};

/**
 * One node of the expression DAG.
 *
 * Nodes carry a structural hash (for fast structural-equality
 * rejection) and a concreteness flag. Use the static factory
 * functions; they fold constants and apply light rewrites. A node is
 * one allocation: the factories build it with std::make_shared, and
 * its (at most three) operands sit inline.
 */
class Expr : public std::enable_shared_from_this<Expr>
{
    /** Passkey: only Expr's factories can name it, so only they can
     *  call the (public, for make_shared) constructor. */
    struct Key
    {
        explicit Key() = default;
    };

  public:
    Expr(Key, ExprKind k, Width w) : kind_(k), width_(w) {}

    /** @name Factories
     * @{
     */

    /** Literal of value @p v truncated to width @p w. */
    static ExprPtr constant(std::int64_t v, Width w = Width::I64);

    /** Boolean literal. */
    static ExprPtr boolean(bool b);

    /**
     * Fresh symbolic input.
     *
     * @param name  diagnostic name
     * @param id    unique symbol id (caller-assigned)
     * @param w     width
     * @param lo    smallest admissible value (domain bound)
     * @param hi    largest admissible value (domain bound)
     */
    static ExprPtr symbol(const std::string &name, int id,
                          Width w = Width::I64,
                          std::int64_t lo = INT64_MIN,
                          std::int64_t hi = INT64_MAX);

    /** Unary node (Neg, BNot, LNot). */
    static ExprPtr unary(ExprKind k, const ExprPtr &a);

    /** Binary node; applies folding and algebraic identities. */
    static ExprPtr binary(ExprKind k, const ExprPtr &a, const ExprPtr &b);

    /** If-then-else over an I1 condition. */
    static ExprPtr ite(const ExprPtr &c, const ExprPtr &t,
                       const ExprPtr &f);

    /** @} */

    /** Node kind. */
    ExprKind kind() const { return kind_; }

    /** Result width. */
    Width width() const { return width_; }

    /** True when the node mentions no symbols (then kind is Const). */
    bool isConcrete() const { return concrete_; }

    /** True for a Const node equal to @p v. */
    bool isConstEq(std::int64_t v) const;

    /** Literal value; only valid for Const nodes. */
    std::int64_t constValue() const;

    /** Symbol id; only valid for Symbol nodes. */
    int symbolId() const { return sym_id; }

    /** Symbol name; only valid for Symbol nodes. */
    const std::string &symbolName() const { return sym_name; }

    /** Symbol domain lower bound; only valid for Symbol nodes. */
    std::int64_t symbolLo() const { return sym_lo; }

    /** Symbol domain upper bound; only valid for Symbol nodes. */
    std::int64_t symbolHi() const { return sym_hi; }

    /** Operand @p i. */
    const ExprPtr &child(int i) const { return kids[i]; }

    /** Operand count. */
    int numChildren() const { return nkids; }

    /** Structural hash (stable across processes). */
    std::uint64_t hash() const { return hash_; }

    /** Deep structural equality. */
    bool equals(const Expr &o) const;

    /** Evaluate under @p m (all symbols must be bound or default 0). */
    std::int64_t evaluate(const Model &m) const;

    /** Collect the set of symbol ids mentioned by this expression. */
    void collectSymbols(std::set<int> &out) const;

    /** All distinct Symbol nodes in this expression. */
    void collectSymbolNodes(std::map<int, ExprPtr> &out) const;

    /** Render to a compact prefix string (diagnostics, reports). */
    std::string toString() const;

    /** Truncate @p v to @p w with sign extension back to 64 bits. */
    static std::int64_t truncate(std::int64_t v, Width w);

    /** Apply @p k to concrete operands (width-aware). */
    static std::int64_t applyBinary(ExprKind k, std::int64_t a,
                                    std::int64_t b, Width w);

    /** Apply unary @p k to a concrete operand. */
    static std::int64_t applyUnary(ExprKind k, std::int64_t a, Width w);

  private:
    static ExprPtr make(ExprKind k, Width w,
                        std::initializer_list<ExprPtr> children);

    ExprKind kind_;
    Width width_;
    bool concrete_ = false;
    std::uint8_t nkids = 0;
    int sym_id = -1;
    std::uint64_t hash_ = 0;
    std::int64_t cval = 0;

    std::string sym_name;
    std::int64_t sym_lo = INT64_MIN;
    std::int64_t sym_hi = INT64_MAX;

    std::array<ExprPtr, 3> kids;
};

/** @name Convenience constructors
 * @{
 */
inline ExprPtr mkConst(std::int64_t v, Width w = Width::I64)
{ return Expr::constant(v, w); }
inline ExprPtr mkAdd(const ExprPtr &a, const ExprPtr &b)
{ return Expr::binary(ExprKind::Add, a, b); }
inline ExprPtr mkMul(const ExprPtr &a, const ExprPtr &b)
{ return Expr::binary(ExprKind::Mul, a, b); }
inline ExprPtr mkEq(const ExprPtr &a, const ExprPtr &b)
{ return Expr::binary(ExprKind::Eq, a, b); }
inline ExprPtr mkNe(const ExprPtr &a, const ExprPtr &b)
{ return Expr::binary(ExprKind::Ne, a, b); }
inline ExprPtr mkSlt(const ExprPtr &a, const ExprPtr &b)
{ return Expr::binary(ExprKind::Slt, a, b); }
inline ExprPtr mkSle(const ExprPtr &a, const ExprPtr &b)
{ return Expr::binary(ExprKind::Sle, a, b); }
/** @} */

} // namespace portend::sym

#endif // PORTEND_SYM_EXPR_H
