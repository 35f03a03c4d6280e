#include "replay/replayer.h"

#include <algorithm>

#include "rt/decode.h"

namespace portend::replay {

namespace {

/** Program counter of the next instruction of @p tid. */
int
nextPc(const ir::Program &prog, const rt::VmState &state,
       rt::ThreadId tid)
{
    const rt::ThreadState &t = state.thread(tid);
    if (t.stack.empty())
        return -1;
    const rt::Frame &f = t.stack.back();
    return rt::framePc(prog.function(f.func), f.ip);
}

} // namespace

rt::ThreadId
RecordingPolicy::pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable)
{
    rt::ThreadId tid = inner->pick(state, runnable);
    if (tid >= 0) {
        SchedDecision d;
        d.tid = tid;
        d.pc = nextPc(prog, state, tid);
        d.step = state.global_step;
        out->decisions.push_back(d);
    }
    return tid;
}

void
RecordingPolicy::captureInputs(const rt::VmState &state,
                               ScheduleTrace *out)
{
    out->inputs = state.env_log;
}

rt::ThreadId
TracePolicy::pick(const rt::VmState &state,
                  const std::vector<rt::ThreadId> &runnable)
{
    // Cursor derives from the state so forked/restored states resume
    // replay at the correct decision without policy-side bookkeeping.
    std::uint64_t idx = state.preemption_points;
    if (idx < trace.decisions.size()) {
        const SchedDecision &d = trace.decisions[idx];
        for (rt::ThreadId t : runnable) {
            if (t == d.tid)
                return t;
        }
        // Recorded thread not runnable: divergence.
        diverged += 1;
        return -1;
    }
    // Past the end of the trace.
    return fallback ? fallback->pick(state, runnable) : -1;
}

bool
TracePolicy::loopKey(const rt::VmState &state,
                     std::vector<std::uint64_t> &key) const
{
    if (state.preemption_points < trace.decisions.size() ||
        !fallback) {
        return false;
    }
    return fallback->loopKey(state, key);
}

std::uint64_t
AlternatePolicy::postTraceIndex(const rt::VmState &state) const
{
    // One extra slot is re-issued: the pre-race stop consumed the
    // held thread's scheduling slot without executing its segment.
    const std::uint64_t skip = hold_picks + 1;
    return state.preemption_points >= skip
               ? state.preemption_points - skip
               : 0;
}

rt::ThreadId
AlternatePolicy::pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable)
{
    if (released) {
        // Post-race: prefer the original trace, shifted past the
        // decisions the hold phase consumed, so orderings unrelated
        // to the reversed pair stay as recorded.
        if (post_trace) {
            const std::uint64_t idx = postTraceIndex(state);
            if (idx < post_trace->decisions.size()) {
                rt::ThreadId want = post_trace->decisions[idx].tid;
                for (rt::ThreadId t : runnable) {
                    if (t == want)
                        return t;
                }
            }
        }
        return post->pick(state, runnable);
    }

    // Hold the original first accessor; drive the second accessor
    // toward its racing access, else run the lowest other thread.
    hold_picks += 1;
    rt::ThreadId lowest = -1;
    for (rt::ThreadId t : runnable) {
        if (t == held)
            continue;
        if (t == driven)
            return t;
        if (lowest < 0)
            lowest = t;
    }
    if (lowest < 0)
        starved_ = true;
    return lowest;
}

void
AlternatePolicy::onEvent(const rt::Event &ev)
{
    if (released) {
        post->onEvent(ev);
        return;
    }
    // Tolerant matching (paper §3.3): the second thread's access to
    // the racing cell counts as the alternate-ordered access even at
    // a different program counter, but it must reach the recorded
    // dynamic occurrence — earlier accesses to the same cell were
    // already ordered before the held access in the primary.
    if ((ev.kind == rt::EventKind::MemRead ||
         ev.kind == rt::EventKind::MemWrite) &&
        ev.tid == driven && ev.cell == cell &&
        ev.cell_occurrence >= awaited) {
        released = true;
    }
}

bool
AlternatePolicy::loopKey(const rt::VmState &state,
                         std::vector<std::uint64_t> &key) const
{
    if (!released) {
        key.push_back(0);
        key.push_back(
            std::min(state.cellAccessCount(driven, cell), awaited));
        return true;
    }
    if (post_trace &&
        postTraceIndex(state) < post_trace->decisions.size()) {
        return false;
    }
    key.push_back(1);
    return post->loopKey(state, key);
}

} // namespace portend::replay
