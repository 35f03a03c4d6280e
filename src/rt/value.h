/**
 * @file
 * Tagged runtime value: concrete int64 inline, ExprPtr only when
 * symbolic.
 *
 * Before this header every register and memory cell held a
 * sym::ExprPtr, so a fully concrete run paid a heap allocation and
 * two atomic refcount bumps per produced value. rt::Value keeps the
 * common case — a concrete integer with a width — in 16 inline bytes
 * and only boxes an expression node when the value actually mentions
 * a symbol. The boxing boundary is exact: because the expression
 * factories fold constants (an expression with no symbols is always a
 * single Const node), a Value is symbolic iff its expression is
 * non-Const, and converting back and forth is lossless.
 *
 * Arithmetic on Values must be bit-for-bit identical to arithmetic on
 * expressions: valueBinary/valueUnary reproduce Expr::binary/unary's
 * width rules (operand width = wider operand; comparisons and the
 * logical connectives produce I1; LNot produces I1) and delegate to
 * the very same Expr::applyBinary/applyUnary folds. The algebraic
 * identity rewrites in sym/simplify.cc only fire when at least one
 * operand is symbolic, so the concrete fast path skipping them cannot
 * change any result.
 */

#ifndef PORTEND_RT_VALUE_H
#define PORTEND_RT_VALUE_H

#include <cstdint>
#include <utility>

#include "support/logging.h"
#include "sym/expr.h"

namespace portend::rt {

/** Count of Value→ExprPtr boxing conversions on this thread since
 *  process start (`detect.values_boxed`, `interp.values_boxed`). */
std::uint64_t valuesBoxed();

namespace detail {
/** Count @p n boxing conversions on this thread. */
void noteBoxed(std::uint64_t n = 1);
} // namespace detail

/**
 * A runtime value: either a concrete (int64, width) pair stored
 * inline, or a boxed symbolic expression. Default-constructed Values
 * are concrete 0 of width I64, matching Expr::constant(0).
 */
class Value
{
  public:
    Value() = default;

    /** Wrap an expression, unboxing Const nodes to the inline form. */
    explicit Value(const sym::ExprPtr &e)
    {
        PORTEND_ASSERT(e, "null expression wrapped in Value");
        if (e->isConcrete()) {
            c_ = e->constValue();
            w_ = e->width();
        } else {
            w_ = e->width();
            e_ = e;
        }
    }

    explicit Value(sym::ExprPtr &&e)
    {
        PORTEND_ASSERT(e, "null expression wrapped in Value");
        if (e->isConcrete()) {
            c_ = e->constValue();
            w_ = e->width();
        } else {
            w_ = e->width();
            e_ = std::move(e);
        }
    }

    /** Concrete literal, truncated (sign-extending) to @p w exactly
     *  like Expr::constant. */
    static Value
    ofConst(std::int64_t v, sym::Width w = sym::Width::I64)
    {
        Value out;
        out.c_ = sym::Expr::truncate(v, w);
        out.w_ = w;
        return out;
    }

    /** True when the value mentions no symbols. */
    bool isConcrete() const { return e_ == nullptr; }

    /** Concrete payload; only valid when isConcrete(). */
    std::int64_t
    constValue() const
    {
        PORTEND_ASSERT(isConcrete(), "constValue of symbolic value");
        return c_;
    }

    /** Bit width (concrete or symbolic). */
    sym::Width width() const { return w_; }

    /** The boxed expression; only valid when symbolic. */
    const sym::ExprPtr &
    expr() const
    {
        PORTEND_ASSERT(!isConcrete(), "expr() of concrete value");
        return e_;
    }

    /**
     * Expression view of the value, boxing a Const node for concrete
     * values. This is the only allocation point in the Value API; it
     * feeds the values-boxed counters.
     */
    sym::ExprPtr
    toExpr() const
    {
        if (e_)
            return e_;
        detail::noteBoxed();
        return sym::Expr::constant(c_, w_);
    }

    /**
     * Structural equality, matching Expr::equals on the boxed forms:
     * two concrete values are equal iff width and payload agree (a
     * Const node's identity), and a concrete value never equals a
     * symbolic one (their kinds differ).
     */
    bool
    equals(const Value &o) const
    {
        if (isConcrete() != o.isConcrete())
            return false;
        if (isConcrete())
            return w_ == o.w_ && c_ == o.c_;
        return e_->equals(*o.e_);
    }

    /** Evaluate under @p m (concrete values are their own result). */
    std::int64_t
    evaluate(const sym::Model &m) const
    {
        return e_ ? e_->evaluate(m) : c_;
    }

  private:
    std::int64_t c_ = 0;
    sym::Width w_ = sym::Width::I64;
    sym::ExprPtr e_;
};

namespace detail {

/** Result width of a binary op, mirroring Expr::binary. */
inline sym::Width
binaryResultWidth(sym::ExprKind k, sym::Width opw)
{
    switch (k) {
      case sym::ExprKind::Eq:
      case sym::ExprKind::Ne:
      case sym::ExprKind::Slt:
      case sym::ExprKind::Sle:
      case sym::ExprKind::Sgt:
      case sym::ExprKind::Sge:
      case sym::ExprKind::LAnd:
      case sym::ExprKind::LOr:
        return sym::Width::I1;
      default:
        return opw;
    }
}

} // namespace detail

/**
 * Binary operation over Values. Concrete operands fold inline via
 * Expr::applyBinary under Expr::binary's exact width rules; a
 * symbolic operand falls back to the expression factory (whose
 * rewrites then apply, as before).
 */
inline Value
valueBinary(sym::ExprKind k, const Value &a, const Value &b)
{
    if (a.isConcrete() && b.isConcrete()) {
        const sym::Width opw =
            sym::widthBits(a.width()) >= sym::widthBits(b.width())
                ? a.width()
                : b.width();
        return Value::ofConst(
            sym::Expr::applyBinary(k, a.constValue(), b.constValue(),
                                   opw),
            detail::binaryResultWidth(k, opw));
    }
    return Value(sym::Expr::binary(k, a.toExpr(), b.toExpr()));
}

/** Unary operation over Values; see valueBinary. */
inline Value
valueUnary(sym::ExprKind k, const Value &a)
{
    if (a.isConcrete()) {
        const sym::Width w =
            k == sym::ExprKind::LNot ? sym::Width::I1 : a.width();
        return Value::ofConst(
            sym::Expr::applyUnary(k, a.constValue(), w), w);
    }
    return Value(sym::Expr::unary(k, a.toExpr()));
}

} // namespace portend::rt

#endif // PORTEND_RT_VALUE_H
