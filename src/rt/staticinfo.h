/**
 * @file
 * Static may-write analysis over PIL programs.
 *
 * Computes, per function, the set of globals the function (or any
 * function it may transitively call or spawn) can write. Portend's
 * timeout diagnosis uses this to tell an infinite loop (the spin
 * condition can never change: no live thread may write the cells the
 * spinner reads) from ad-hoc synchronization (another thread could
 * write them — only the enforced ordering prevents it), mirroring
 * the loop-invariant exit-condition analysis of the paper (§3.2).
 */

#ifndef PORTEND_RT_STATICINFO_H
#define PORTEND_RT_STATICINFO_H

#include <set>
#include <vector>

#include "ir/program.h"

namespace portend::rt {

/**
 * Per-program static facts; compute once, share across analyses.
 */
class StaticInfo
{
  public:
    /** Run the fixpoint analysis on @p p. */
    explicit StaticInfo(const ir::Program &p);

    /** Globals function @p f may write, transitively (gid set). */
    const std::set<ir::GlobalId> &mayWrite(ir::FuncId f) const;

  private:
    std::vector<std::set<ir::GlobalId>> may_write;
};

} // namespace portend::rt

#endif // PORTEND_RT_STATICINFO_H
