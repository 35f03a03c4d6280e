#include "fuzz/fuzzer.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "fuzz/corpus.h"
#include "fuzz/minimize.h"
#include "ir/serialize.h"
#include "support/hash.h"
#include "support/observe.h"
#include "support/parallel.h"
#include "support/stats.h"
#include "support/trace.h"

namespace portend::fuzz {

namespace {

/** Everything one campaign index produces. */
struct IndexResult
{
    GeneratedProgram gen;
    OracleVerdict verdict;
};

/** 8-hex-digit content id for deterministic entry names. */
std::string
hex8(std::uint64_t h)
{
    static const char *digits = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 7; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

/** The oracle's verdict on @p gen; a program the generator emitted
 *  invalid fails the `verify` check instead (a finding, not a
 *  crash). */
OracleVerdict
judgeProgram(const GeneratedProgram &gen, const FuzzOptions &opts,
             bool deep)
{
    if (!gen.verify_errors.empty()) {
        OracleVerdict v;
        std::string all;
        for (const std::string &e : gen.verify_errors)
            all += (all.empty() ? "" : "; ") + e;
        v.checks.push_back({"verify", false, all});
        return v;
    }
    const OracleOptions o{deep};
    return opts.judge ? opts.judge(gen.program, o)
                      : runOracle(gen.program, o);
}

/** Generate + judge one campaign index. */
IndexResult
runIndex(std::uint64_t index, const FuzzOptions &opts)
{
    IndexResult r;
    r.gen = generateProgram(opts.fuzz_seed, index, GeneratorOptions{});
    r.verdict = judgeProgram(r.gen, opts, index % kDeepEvery == 0);
    return r;
}

/** Oracle re-run used by minimization probes and entry snapshots. */
OracleVerdict
judgeRecipe(const ProgramRecipe &recipe, const FuzzOptions &opts,
            bool deep)
{
    return judgeProgram(buildProgram(recipe), opts, deep);
}

/** Persist one minimized recipe as a corpus entry. */
std::string
persistEntry(const ProgramRecipe &recipe, const OracleVerdict &v,
             const std::string &kind, const std::string &check,
             std::uint64_t index, const FuzzOptions &opts,
             std::vector<std::string> &io_errors)
{
    GeneratedProgram gen = buildProgram(recipe);
    CorpusEntry entry;
    entry.kind = kind;
    entry.check = check;
    entry.fuzz_seed = opts.fuzz_seed;
    entry.index = index;
    entry.signature = v.signature();
    entry.witness = v.witness_text;
    entry.recipe_text = recipe.serialize();
    entry.program_text = ir::serializeProgram(gen.program);
    entry.trace_text = v.trace_text;
    entry.name =
        (kind == "regression" ? "sig-" : "bug-" + check + "-") +
        hex8(fnv1a(entry.kind == "regression" ? entry.signature
                                              : entry.recipe_text));
    std::string error;
    if (!saveEntry(opts.corpus_dir, entry, &error)) {
        io_errors.push_back(error);
        return "";
    }
    return entry.name;
}

/**
 * Folds joined index results into a FuzzResult, then minimizes and
 * persists their reproducers, both sequentially and in index order.
 * What spans results (the signatures seen, corpus I/O errors) lives
 * here, so folding a run batch by batch yields the same summary and
 * corpus whatever the batch size.
 */
class Fold
{
  public:
    Fold(const FuzzOptions &opts, FuzzResult &res)
        : opts_(opts), res_(res)
    {
    }

    /** Fold @p batch, whose first element is index @p first. */
    void
    add(const std::vector<IndexResult> &batch, std::uint64_t first)
    {
        for (const IndexResult &r : batch)
            tally(r);
        for (std::size_t i = 0; i < batch.size(); ++i)
            shrink(batch[i], first + i);
    }

    /** Report every corpus write that failed as a finding. */
    void
    finish()
    {
        for (const std::string &e : io_errors_) {
            res_.findings.push_back(
                FuzzFinding{0, "corpus-io", e, ProgramRecipe{}, ""});
            res_.flagged += 1;
        }
    }

  private:
    void
    tally(const IndexResult &r)
    {
        const GeneratedProgram &gen = r.gen;
        const OracleVerdict &v = r.verdict;
        if (obs::Collector *c = obs::collector()) {
            c->add(obs::Counter::FuzzPrograms, 1);
            c->add(obs::Counter::FuzzFlagged, v.flagged() ? 1 : 0);
        }
        res_.metrics.merge(v.metrics);
        res_.programs += 1;
        if (gen.verify_errors.empty())
            res_.verifier_clean += 1;
        for (const std::string &idiom : gen.idioms)
            res_.idiom_counts[idiom] += 1;
        if (!v.outcome.empty())
            res_.outcome_counts[v.outcome] += 1;
        for (const auto &[cls, n] : v.class_counts)
            res_.class_counts[cls] += n;
        for (const CheckResult &c : v.checks) {
            res_.check_runs[c.name] += 1;
            if (!c.ok)
                res_.check_failures[c.name] += 1;
        }
        for (const auto &[name, n] : v.baseline_counts)
            res_.baseline_counts[name] += n;
        if (v.flagged())
            res_.flagged += 1;
    }

    /** Minimize and persist index @p index: a finding when flagged,
     *  else a regression exemplar when its signature is novel. */
    void
    shrink(const IndexResult &r, std::uint64_t index)
    {
        if (r.verdict.flagged()) {
            const std::string check = r.verdict.firstFailure();
            // Deep (metamorphic re-execution) probes are only needed
            // when the falsified check is itself a deep one; cheap
            // checks are decided before the deep section runs.
            const bool deep_check = isDeepCheck(check);
            MinimizeResult min = minimizeRecipe(
                r.gen.recipe, [&](const ProgramRecipe &cand) {
                    return judgeRecipe(cand, opts_, deep_check)
                               .firstFailure() == check;
                });
            FuzzFinding finding;
            finding.index = index;
            finding.check = check;
            for (const CheckResult &c : r.verdict.checks)
                if (!c.ok && c.name == check)
                    finding.detail = c.detail;
            finding.minimized = min.recipe;
            // A 'verify' finding has no structurally valid program to
            // replay (deserialization would reject it forever), so
            // the minimized recipe in the summary is the reproducer;
            // everything else is persisted for `corpus run` triage.
            if (!opts_.corpus_dir.empty() && check != "verify") {
                OracleVerdict mv =
                    judgeRecipe(min.recipe, opts_, deep_check);
                finding.entry_name =
                    persistEntry(min.recipe, mv, "disagreement", check,
                                 index, opts_, io_errors_);
                if (!finding.entry_name.empty())
                    res_.disagreement_entries += 1;
            }
            res_.findings.push_back(std::move(finding));
            return;
        }

        if (opts_.corpus_dir.empty())
            return;
        const std::string sig = r.verdict.signature();
        if (!seen_signatures_.insert(sig).second)
            return;
        if (res_.regression_entries >= kMaxNewEntries) {
            res_.signatures_over_cap += 1;
            return;
        }
        MinimizeResult min = minimizeRecipe(
            r.gen.recipe, [&](const ProgramRecipe &cand) {
                OracleVerdict v = judgeRecipe(cand, opts_, false);
                return !v.flagged() && v.signature() == sig;
            });
        OracleVerdict mv = judgeRecipe(min.recipe, opts_, false);
        if (!persistEntry(min.recipe, mv, "regression", "", index,
                          opts_, io_errors_)
                 .empty())
            res_.regression_entries += 1;
    }

    const FuzzOptions &opts_;
    FuzzResult &res_;
    std::set<std::string> seen_signatures_;
    std::vector<std::string> io_errors_;
};

} // namespace

std::string
FuzzResult::summaryText() const
{
    std::ostringstream os;
    os << "fuzz summary\n";
    os << "  fuzz seed: " << fuzz_seed << "\n";
    os << "  programs: " << programs << " (" << verifier_clean
       << " verifier-clean)\n";
    os << "  sync idioms (programs containing each):\n";
    for (const auto &[name, n] : idiom_counts)
        os << "    " << name << " " << n << "\n";
    os << "  detection outcomes:\n";
    for (const auto &[name, n] : outcome_counts)
        os << "    " << name << " " << n << "\n";
    os << "  verdict classes (clusters):\n";
    for (const auto &[name, n] : class_counts)
        os << "    " << name << " " << n << "\n";
    os << "  oracle checks (runs / failures):\n";
    for (const auto &[name, n] : check_runs) {
        auto it = check_failures.find(name);
        os << "    " << name << " " << n << " / "
           << (it == check_failures.end() ? 0 : it->second) << "\n";
    }
    if (!baseline_counts.empty()) {
        os << "  baseline disagreements (expected, recorded):\n";
        for (const auto &[name, n] : baseline_counts)
            os << "    " << name << " " << n << "\n";
    }
    if (!corpus_dir.empty()) {
        os << "  corpus: " << regression_entries << " regression + "
           << disagreement_entries << " disagreement entr(ies) in "
           << corpus_dir << "; " << signatures_over_cap
           << " novel signature(s) past the cap of " << kMaxNewEntries
           << " not kept\n";
    }
    for (const FuzzFinding &f : findings) {
        os << "  FINDING[" << f.index << "] check=" << f.check
           << " repro=" << f.minimized.serialize() << "\n";
        os << "    " << f.detail << "\n";
    }
    os << "  unexplained oracle disagreements: " << flagged << "\n";
    return os.str();
}

FuzzResult
runFuzz(const FuzzOptions &opts)
{
    obs::Span span("fuzz", "campaign");
    Stopwatch sw;
    FuzzResult res;
    res.fuzz_seed = opts.fuzz_seed;
    res.corpus_dir = opts.corpus_dir;

    const int jobs = resolveJobs(opts.jobs);

    // One loop for both stop rules: judge a batch with parallelFor,
    // fold it once joined, drop it. Time-boxed mode's program count
    // depends on the host (see fuzzer.h).
    const bool boxed = opts.seconds > 0.0;
    const std::uint64_t budget =
        static_cast<std::uint64_t>(std::max(0, opts.budget));
    const std::uint64_t batch =
        static_cast<std::uint64_t>(kBatchPerJob) * std::max(1, jobs);
    Fold fold(opts, res);
    for (std::uint64_t next = 0;
         boxed ? sw.seconds() < opts.seconds : next < budget;) {
        std::vector<IndexResult> results(
            boxed ? batch : std::min(batch, budget - next));
        parallelFor(jobs, results.size(), [&](std::size_t i) {
            results[i] = runIndex(next + i, opts);
        });
        fold.add(results, next);
        next += results.size();
    }
    fold.finish();

    if (obs::Collector *c = obs::collector()) {
        c->level(obs::Gauge::FuzzCorpusSize,
                 static_cast<std::uint64_t>(res.regression_entries +
                                            res.disagreement_entries));
    }
    span.arg("programs", res.programs);
    span.arg("flagged", res.flagged);
    res.seconds = sw.seconds();
    return res;
}

} // namespace portend::fuzz
