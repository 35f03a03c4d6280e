/**
 * @file
 * DataCollider-style heuristic pruner [29].
 *
 * Recognizes syntactic patterns that usually indicate harmless
 * races — statistics-counter updates, same-constant redundant
 * writes, disjoint-bit manipulation — and prunes matching reports
 * as "likely harmless". As the paper notes (§2.1), such heuristics
 * can be wrong in both directions; this implementation exists as an
 * ablation baseline.
 */

#ifndef PORTEND_BASELINE_HEURISTIC_H
#define PORTEND_BASELINE_HEURISTIC_H

#include "ir/program.h"
#include "race/report.h"

namespace portend::baseline {

/** Verdict of the heuristic pruner. */
enum class HeuristicVerdict : std::uint8_t {
    LikelyHarmless, ///< matched a benign pattern
    NotClassified,  ///< no pattern matched
};

/** Which pattern matched (for reporting). */
enum class BenignPattern : std::uint8_t {
    None,
    StatisticsCounter, ///< load-add-store increment of a global
    RedundantWrite,    ///< both sides store the same constant
    DisjointBits,      ///< bitwise OR/AND of non-overlapping masks
};

/** Result with matched pattern. */
struct HeuristicResult
{
    HeuristicVerdict verdict = HeuristicVerdict::NotClassified;
    BenignPattern pattern = BenignPattern::None;
};

/**
 * Pattern-based race pruner.
 */
class HeuristicClassifier
{
  public:
    explicit HeuristicClassifier(const ir::Program &prog)
        : prog(prog)
    {}

    /** Classify one race report. */
    HeuristicResult classify(const race::RaceReport &race) const;

  private:
    const ir::Program &prog;
};

} // namespace portend::baseline

#endif // PORTEND_BASELINE_HEURISTIC_H
