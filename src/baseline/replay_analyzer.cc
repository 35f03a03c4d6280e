#include "baseline/replay_analyzer.h"

#include "replay/replayer.h"
#include "rt/interpreter.h"

namespace portend::baseline {

ReplayAnalysis
ReplayAnalyzer::analyze(const race::RaceReport &race,
                        const replay::ScheduleTrace &trace)
{
    ReplayAnalysis out;

    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    eo.max_steps = max_steps;
    eo.concrete_inputs = trace.concreteInputs();

    // --- Primary: replay to just before the first racing access. ---
    rt::Interpreter primary(prog, eo);
    rt::RotatePolicy rotate;
    replay::TracePolicy follow(trace, &rotate);
    primary.setPolicy(&follow);

    rt::Interpreter::StopSpec pre;
    pre.before_cell.push_back(
        {race.first.tid, race.cell, race.first.cell_occurrence});
    primary.run(pre);
    if (!primary.stopped()) {
        out.verdict = ReplayVerdict::NotApplicable;
        out.detail = "race not reached during replay";
        return out;
    }
    rt::VmState pre_ckpt = primary.state();

    // Primary post-race snapshot: first accessor then second.
    rt::Interpreter::StopSpec post;
    post.after_pair = {race.cell,
                       {race.first.tid, race.first.is_write},
                       {race.second.tid, race.second.is_write}};
    primary.run(post);
    if (!primary.stopped()) {
        out.verdict = ReplayVerdict::NotApplicable;
        out.detail = "racing pair did not complete in primary replay";
        return out;
    }
    rt::VmState post_primary = primary.state();
    std::uint64_t primary_extent =
        trace.decisions.empty() ? post_primary.global_step
                                : trace.decisions.back().step;

    // Finish the primary to learn how often the second racing
    // instruction executes in an undisturbed run; the alternate
    // replay must match or the replay has diverged.
    primary.run();
    std::uint64_t primary_second_count = primary.state().accessCount(
        race.second.tid, race.second.pc);

    // --- Alternate: enforce the reversed ordering. ---
    rt::Interpreter alt(prog, eo, pre_ckpt);
    alt.state().resume_in_segment = false;
    alt.options().max_steps =
        pre_ckpt.global_step + 5 * (primary_extent + 1000);

    rt::RotatePolicy post_rotate;
    replay::AlternatePolicy enforce(race, &post_rotate);
    alt.setPolicy(&enforce);

    rt::Interpreter::StopSpec apost;
    apost.after_pair = {race.cell,
                        {race.second.tid, race.second.is_write},
                        {race.first.tid, race.first.is_write}};
    rt::RunOutcome oc = alt.run(apost);

    if (!alt.stopped()) {
        // The alternate ordering could not be exercised: a replay
        // failure. [45] conservatively reports the race as likely
        // harmful (this is what Portend's divergence tolerance and
        // ad-hoc-sync detection improve upon).
        out.replay_failed = true;
        out.verdict = ReplayVerdict::LikelyHarmful;
        out.detail = std::string("replay failure (") +
                     rt::runOutcomeName(oc) + ")";
        return out;
    }

    // The replay diverged if the second racing instruction had to
    // re-execute (e.g. a busy-wait loop ran extra iterations while
    // the writer was held). [45] cannot tolerate such divergence and
    // conservatively reports the race as likely harmful.
    rt::VmState post_alt_snapshot = alt.state();
    alt.run();
    if (primary_second_count > 0) {
        std::uint64_t alt_count = alt.state().accessCount(
            race.second.tid, race.second.pc);
        if (alt_count > primary_second_count) {
            out.replay_failed = true;
            out.verdict = ReplayVerdict::LikelyHarmful;
            out.detail = "replay failure (execution diverged from "
                         "the recorded trace)";
            return out;
        }
    }

    // --- Concrete post-race state comparison (memory image). ---
    const rt::VmState &post_alt = post_alt_snapshot;
    bool differ = post_primary.mem.size() != post_alt.mem.size();
    if (!differ) {
        for (std::size_t i = 0; i < post_primary.mem.size(); ++i) {
            if (!post_primary.mem[i].equals(post_alt.mem[i])) {
                differ = true;
                break;
            }
        }
    }
    out.states_differ = differ;
    out.verdict = differ ? ReplayVerdict::LikelyHarmful
                         : ReplayVerdict::LikelyHarmless;
    out.detail = differ ? "post-race memory states differ"
                        : "post-race memory states match";
    return out;
}

} // namespace portend::baseline
