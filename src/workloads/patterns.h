/**
 * @file
 * Reusable race-pattern factories.
 *
 * Each factory emits one self-contained racy interaction into a
 * workload model under construction and returns its ground truth.
 * Patterns are designed so that each produces exactly one distinct
 * race cluster (one racing pc pair on one cell) in the detection
 * run, keeping Table 3's distinct-race accounting exact.
 *
 * Catalogue (paper sources in brackets):
 *  - spin-flag synchronization  -> "single ordering"   [Fig. 8d]
 *  - value printed after race   -> "output differs"    [Fig. 8c]
 *  - input-gated print          -> "output differs", needs
 *                                  multi-path analysis [Fig. 4]
 *  - post-race log interleaving -> "output differs", needs
 *                                  multi-schedule analysis [§3.4]
 *  - last-writer tag            -> "k-witness", states differ
 *  - index overflow             -> "spec violated" crash [Fig. 4]
 */

#ifndef PORTEND_WORKLOADS_PATTERNS_H
#define PORTEND_WORKLOADS_PATTERNS_H

#include <string>
#include <utility>

#include "ir/builder.h"
#include "workloads/workload.h"

namespace portend::workloads {

/**
 * Emission context: one producer-side function builder and one
 * consumer-side function builder, plus the program builder for
 * declaring globals. Thread identities are decided by the caller;
 * patterns only emit straight-line/loop code into the two builders.
 */
struct PatternCtx
{
    ir::ProgramBuilder *pb;
    ir::FunctionBuilder *producer; ///< first accessor side
    ir::FunctionBuilder *consumer; ///< second accessor side
};

/**
 * Spin-flag ad-hoc synchronization: producer stores data then sets
 * a flag; consumer busy-waits on the flag, then reads data.
 *
 * Produces TWO distinct races (flag and data), both ground-truth
 * "single ordering". @p spin_pad adds extra flag reads to inflate
 * the dynamic instance count.
 *
 * @return the two expected races {flag, data} in emission order
 */
std::pair<ExpectedRace, ExpectedRace>
emitSpinFlag(PatternCtx ctx, const std::string &tag, int spin_pad = 0);

/**
 * Spin-flag with no separate data cell: one "single ordering" race
 * on the flag only.
 */
ExpectedRace emitSpinFlagOnly(PatternCtx ctx, const std::string &tag,
                              int spin_pad = 0);

/**
 * Racy value reaches the output directly: producer writes a cell
 * the consumer prints. Ground truth "output differs", visible to
 * single-path analysis.
 */
ExpectedRace emitPrintedValueRace(PatternCtx ctx,
                                  const std::string &tag,
                                  std::int64_t value);

/**
 * Input-gated printed race: the consumer prints the racy value only
 * when a configuration global (filled by main from a bounded input
 * before spawning, default off) is set, so only multi-path analysis
 * exposes the output difference (paper Fig. 4 structure).
 */
ExpectedRace emitInputGatedPrintRace(PatternCtx ctx,
                                     const std::string &tag,
                                     std::int64_t value,
                                     ir::GlobalId config);

/**
 * Stale-poll race: the consumer polls the racy flag twice through
 * one load instruction and prints whether it ever saw it set. The
 * primary and the deterministic trace-preserving alternate observe
 * the flag at least once; only a randomized post-race schedule can
 * place both polls before the write, so the output difference needs
 * multi-schedule analysis (§3.4).
 */
ExpectedRace emitLogOrderRace(PatternCtx ctx, const std::string &tag);

/**
 * Last-writer tag: both sides store their (different) ids into a
 * cell that never reaches the output. Ground truth "k-witness
 * harmless" with differing post-race states.
 */
ExpectedRace emitLastWriterRace(PatternCtx ctx, const std::string &tag,
                                std::int64_t v1, std::int64_t v2);

/**
 * Index-overflow crash (paper Fig. 4): producer bumps an index
 * cell; the consumer loads it and stores through it into a table
 * sized so that the bumped value is out of bounds. Ground truth
 * "spec violated" (crash) — the crash happens only in the alternate
 * ordering.
 */
ExpectedRace emitOverflowCrashRace(PatternCtx ctx,
                                   const std::string &tag,
                                   int table_size);

} // namespace portend::workloads

#endif // PORTEND_WORKLOADS_PATTERNS_H
