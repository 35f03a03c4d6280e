#include "portend/analyzer.h"

#include <cstdio>
#include <set>

#include "portend/outputcmp.h"
#include "support/observe.h"
#include "support/stats.h"
#include "support/trace.h"

namespace portend::core {

namespace {

/** Concrete input vector for a symbolic env log under a model. */
std::vector<std::int64_t>
concretizeEnvLog(const std::vector<rt::VmState::EnvRead> &log,
                 const sym::Model &model)
{
    std::vector<std::int64_t> out;
    out.reserve(log.size());
    for (const auto &r : log) {
        if (!r.symbolic) {
            out.push_back(r.value);
        } else if (model.values.count(r.sym_id)) {
            out.push_back(model.values.at(r.sym_id));
        } else {
            // Unconstrained symbol: any domain value works; use the
            // lower bound for determinism.
            out.push_back(r.lo);
        }
    }
    return out;
}

/**
 * Named witness bindings for the symbolic entries of an env log,
 * using the same model/fallback rule as concretizeEnvLog so the
 * witness names exactly the values replay will consume.
 */
std::vector<WitnessInput>
witnessOf(const std::vector<rt::VmState::EnvRead> &log,
          const sym::Model &model)
{
    std::vector<WitnessInput> out;
    for (const auto &r : log) {
        if (!r.symbolic)
            continue;
        WitnessInput w;
        w.name = r.name.empty() ? "sym" + std::to_string(r.sym_id)
                                : r.name;
        w.value = model.values.count(r.sym_id)
                      ? model.values.at(r.sym_id)
                      : r.lo;
        out.push_back(std::move(w));
    }
    return out;
}

} // namespace

bool
PrimarySearchPolicy::racePassed(const rt::VmState &state,
                                const race::RaceReport &race)
{
    if (state.cellAccessCount(race.first.tid, race.cell) <
        race.first.cell_occurrence) {
        return false;
    }
    return state.cellAccessCount(race.second.tid, race.cell) >=
           race.second.cell_occurrence;
}

rt::ThreadId
PrimarySearchPolicy::pick(const rt::VmState &state,
                          const std::vector<rt::ThreadId> &runnable)
{
    const std::uint64_t idx = state.stats.preemption_points;
    const bool passed = racePassed(state, race);

    if (idx < trace.decisions.size()) {
        const replay::SchedDecision &d = trace.decisions[idx];
        for (rt::ThreadId t : runnable) {
            if (t == d.tid)
                return t;
        }
        if (!passed)
            return -1; // strict pre-race: prune divergent path
    } else if (!passed) {
        return -1; // trace exhausted without reaching the race
    }

    // Tolerant post-race: rotate through runnable threads so that
    // busy-wait phases keep making progress (a keep-current policy
    // would spin one thread forever).
    for (rt::ThreadId t : runnable) {
        if (t > state.current)
            return t;
    }
    return runnable.front();
}

RaceAnalyzer::RaceAnalyzer(const ir::Program &prog,
                           const PortendOptions &opts)
    : prog(prog), opts(opts),
      owned_static(std::make_unique<rt::StaticInfo>(prog)),
      static_info(*owned_static)
{}

RaceAnalyzer::RaceAnalyzer(const ir::Program &prog,
                           const PortendOptions &opts,
                           const rt::StaticInfo &shared_static)
    : prog(prog), opts(opts), static_info(shared_static)
{}

rt::ExecOptions
RaceAnalyzer::replayOptions(const PortendOptions &opts)
{
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    eo.max_steps = opts.max_steps;
    return eo;
}

rt::ExecOptions
RaceAnalyzer::baseOptions() const
{
    return replayOptions(opts);
}

const replay::CheckpointLadder::Rung *
RaceAnalyzer::usableRung(const replay::CheckpointLadder *ladder,
                         const race::RaceReport &race,
                         const std::vector<std::int64_t> &inputs) const
{
    if (!ladder || ladder->inputs() != inputs)
        return nullptr;
    const replay::CheckpointLadder::Rung *rung = ladder->find(
        race.first.tid, race.cell, race.first.cell_occurrence);
    // A rung past this analyzer's budget is unusable: a from-0
    // replay under a tighter budget than the ladder's would have
    // timed out before reaching it, and the ladder must never change
    // verdicts.
    if (rung && rung->state.global_step >= opts.max_steps)
        return nullptr;
    return rung;
}

const replay::CheckpointLadder::End *
RaceAnalyzer::usableEnd(const replay::CheckpointLadder *ladder,
                        const replay::CheckpointLadder::Rung *rung) const
{
    const replay::CheckpointLadder::End *end =
        rung ? ladder->end() : nullptr;
    if (!end)
        return nullptr;
    const rt::VmState &s = end->state;
    // A timed-out end is where the ladder's budget cut the run; any
    // other budget cuts it elsewhere.
    if (s.outcome == rt::RunOutcome::TimedOut)
        return end->budget == opts.max_steps ? end : nullptr;
    // The interpreter checks its budget before each instruction and
    // at each scheduling decision. An end reached inside an
    // instruction (outcome_tid >= 0: exit, crash, failed assert) was
    // last checked at global_step - 1; one the scheduler found (no
    // runnable thread, or a policy abort) at global_step itself.
    const std::uint64_t last_check =
        s.outcome_tid >= 0 ? s.global_step - 1 : s.global_step;
    return last_check < opts.max_steps ? end : nullptr;
}

ViolationKind
RaceAnalyzer::violationOf(rt::RunOutcome o) const
{
    switch (o) {
      case rt::RunOutcome::CrashOob:
      case rt::RunOutcome::CrashDivZero:
        return ViolationKind::Crash;
      case rt::RunOutcome::Deadlock:
        return ViolationKind::Deadlock;
      case rt::RunOutcome::AssertFail:
        return ViolationKind::SemanticAssert;
      case rt::RunOutcome::TimedOut:
        return ViolationKind::InfiniteLoop;
      default:
        return ViolationKind::None;
    }
}

namespace {

/**
 * Mark in @p out (one flag per global) every global that a function
 * on thread @p t's call stack may still write, transitively.
 */
void
markStackWrites(const rt::StaticInfo &si, const rt::ThreadState &t,
                std::vector<char> &out)
{
    for (const rt::Frame &f : t.stack) {
        for (ir::GlobalId g : si.mayWrite(f.func))
            out[static_cast<std::size_t>(g)] = 1;
    }
}

} // namespace

bool
RaceAnalyzer::diagnoseInfiniteLoop(const rt::VmState &state) const
{
    // A timed-out execution spins in its runnable threads. If some
    // other live thread may still write a global the spinner reads,
    // the loop is ad-hoc synchronization held back by the enforced
    // schedule; otherwise the exit condition is invariant and this
    // is an infinite loop (paper §3.2, [60]).
    // Only threads that executed recently are spinners; threads the
    // enforcement policy held back are runnable but idle, and their
    // (empty) read sets must not be mistaken for invariant loops.
    const std::uint64_t activity_cutoff = 512;
    std::vector<char> writable;
    for (const auto &spinner : state.threads) {
        if (!spinner.runnable())
            continue;
        if (spinner.last_step + activity_cutoff < state.global_step)
            continue;
        writable.assign(prog.globals.size(), 0);
        for (const auto &other : state.threads) {
            if (other.tid != spinner.tid &&
                other.status != rt::ThreadStatus::Exited) {
                markStackWrites(static_info, other, writable);
            }
        }
        bool someone_can_write = false;
        for (int i = 0; i < spinner.recent_reads.size(); ++i) {
            const ir::GlobalId g =
                prog.cellGlobal(spinner.recent_reads[i]);
            if (g >= 0 && writable[static_cast<std::size_t>(g)]) {
                someone_can_write = true;
                break;
            }
        }
        if (!someone_can_write)
            return true; // invariant exit condition
    }
    return false;
}

namespace {

/** Collect globals loaded into the defining chain of @p reg. */
void
collectChainLoads(const std::vector<ir::Inst> &insts, int from,
                  ir::Reg reg, std::set<ir::GlobalId> &out,
                  int depth = 0)
{
    if (depth > 16 || reg < 0)
        return;
    for (int i = from; i >= 0; --i) {
        const ir::Inst &inst = insts[i];
        if (inst.dst != reg)
            continue;
        if (inst.op == ir::Op::Load || inst.op == ir::Op::AtomicRmW) {
            out.insert(inst.gid);
            return;
        }
        for (const ir::Operand *o : {&inst.a, &inst.b, &inst.c}) {
            if (o->isReg()) {
                collectChainLoads(insts, i - 1, o->reg, out,
                                  depth + 1);
            }
        }
        return;
    }
}

} // namespace

bool
RaceAnalyzer::crashInvolvesRaceCell(const rt::VmState &final_state,
                                    const race::RaceReport &race) const
{
    const int pc = final_state.outcome_pc;
    if (pc < 0 || pc >= prog.numInsts())
        return true; // no faulting site: attribute conservatively
    ir::GlobalId race_global = prog.cellGlobal(race.cell);
    ir::Program::PcLoc loc = prog.pcLoc(pc);
    const auto &insts =
        prog.functions[loc.func].blocks[loc.block].insts;
    const ir::Inst &fault = insts[loc.index];

    // Direct access to the racing global at the faulting site.
    if ((fault.op == ir::Op::Load || fault.op == ir::Op::Store ||
         fault.op == ir::Op::AtomicRmW) &&
        fault.gid == race_global) {
        return true;
    }

    std::set<ir::GlobalId> chain;
    for (const ir::Operand *o : {&fault.a, &fault.b, &fault.c}) {
        if (o->isReg())
            collectChainLoads(insts, loc.index - 1, o->reg, chain);
    }
    if (chain.empty())
        return true; // nothing to pin the crash on: attribute
    return chain.count(race_global) > 0;
}

void
RaceAnalyzer::absorbStats(AnalysisStats &stats, const rt::VmState &s)
{
    stats.preemptions += s.stats.preemption_points;
    stats.sym_branches += s.stats.symbolic_branches;
    stats.steps += s.global_step;
}

/**
 * Enforce the alternate ordering from a pre-race state and observe
 * the consequences. Returns OutSame with the alternate's outputs
 * when the alternate completed normally (the caller compares
 * outputs), or the violating/blocking verdict otherwise.
 */
RaceAnalyzer::SingleResult
RaceAnalyzer::runAlternateFromState(
    const rt::VmState &pre, const race::RaceReport &race,
    const std::vector<std::int64_t> &inputs,
    const explore::PostSpec &post,
    std::uint64_t primary_total_steps,
    const rt::VmState *post_primary,
    const replay::ScheduleTrace *post_trace,
    std::uint64_t primary_second_count, AnalysisStats &stats) const
{
    SingleResult r;

    rt::ExecOptions eo = baseOptions();
    eo.concrete_inputs = inputs;
    rt::Interpreter alt(prog, std::move(eo), pre);
    // The checkpoint was taken mid-segment of the held thread; the
    // alternate must start with a fresh scheduling decision so the
    // enforcement policy can exclude that thread.
    alt.state().resume_in_segment = false;
    if (post.kind == explore::PostSpec::Kind::Random)
        alt.state().rng = Rng(post.seed * 0x9e3779b97f4a7c15ull + 1);

    const std::uint64_t pre_steps = pre.global_step;
    const std::uint64_t body =
        primary_total_steps > pre_steps
            ? primary_total_steps - pre_steps
            : 1000;
    alt.options().max_steps =
        pre_steps + kTimeoutFactor * body + 2000;

    SemanticMonitor sem(alt, opts.semantic_predicates);
    alt.addSink(&sem);

    // Post-race scheduling per the spec: the Trace kind keeps
    // following the original trace after enforcement (stage 1's
    // deterministic alternate, preserving orderings unrelated to
    // the race, with rotation past the trace so spin loops
    // progress); Random samples from the reseeded state RNG; Guided
    // applies an explorer-issued decision prefix and completes with
    // deterministic rotation. Random and Guided runs are observed
    // through a GuidedPolicy so the explorer learns the schedule
    // they actually realized.
    rt::RotatePolicy rotate;
    rt::RandomPolicy rnd;
    const bool observed = post.kind != explore::PostSpec::Kind::Trace;
    rt::GuidedPolicy guided(
        post.prefix,
        post.kind == explore::PostSpec::Kind::Random
            ? static_cast<rt::SchedulePolicy *>(&rnd)
            : static_cast<rt::SchedulePolicy *>(&rotate));
    rt::SchedulePolicy *postp =
        observed ? static_cast<rt::SchedulePolicy *>(&guided)
                 : static_cast<rt::SchedulePolicy *>(&rotate);
    replay::AlternatePolicy pol(race, postp,
                                observed ? nullptr : post_trace);
    alt.setPolicy(&pol);

    // Snapshot the state right after both racing accesses completed
    // in the alternate order (second accessor, then first).
    rt::Interpreter::StopSpec spec;
    spec.after_pair = {race.cell,
                       {race.second.tid, race.second.is_write},
                       {race.first.tid, race.first.is_write}};

    rt::RunOutcome oc = alt.run(spec);
    if (alt.stopped()) {
        if (post_primary) {
            // Compare the memory the racing threads can reach; other
            // threads' private progress is scheduling noise, not
            // race effect. Fall back to the full image when a racing
            // thread is not alive at the checkpoint.
            const auto nthreads =
                static_cast<rt::ThreadId>(pre.threads.size());
            const bool scoped = race.first.tid < nthreads &&
                                race.second.tid < nthreads;
            std::vector<char> scope;
            if (scoped) {
                scope.assign(prog.globals.size(), 0);
                markStackWrites(static_info,
                                pre.thread(race.first.tid), scope);
                markStackWrites(static_info,
                                pre.thread(race.second.tid), scope);
            }
            const rt::MemImage &pm = post_primary->mem;
            const rt::MemImage &am = alt.state().mem;
            bool differ = false;
            for (std::size_t g = 0;
                 g < prog.globals.size() && !differ; ++g) {
                if (scoped && !scope[g])
                    continue;
                const auto base = static_cast<std::size_t>(
                    prog.cellId(static_cast<ir::GlobalId>(g), 0));
                const auto end =
                    base + static_cast<std::size_t>(prog.globals[g].size);
                for (std::size_t i = base; i < end && !differ; ++i)
                    differ = !pm[i].equals(am[i]);
            }
            r.states_differ = differ;
        }
        oc = alt.run();
    }
    absorbStats(stats, alt.state());
    // Every return below carries the explorer feedback: the schedule
    // this run realized (post-race only; the enforcement phase is
    // not a scheduling choice) and whether enforcement succeeded at
    // all — a starved alternate witnessed no post-race schedule.
    r.alternate_enforced = pol.enforced();
    if (observed)
        r.observation = guided.takeObservation();

    if (!sem.violation().empty()) {
        // Attribute only when the violated property concerns the
        // racing global (unrelated violations are queued separately).
        if (sem.violationCell() < 0 ||
            prog.cellGlobal(sem.violationCell()) ==
                prog.cellGlobal(race.cell)) {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = ViolationKind::SemanticAssert;
            r.detail = sem.violation();
            return r;
        }
        r.kind = SingleResult::Kind::Skipped;
        r.detail = "unrelated semantic violation during alternate: " +
                   sem.violation();
        return r;
    }

    switch (oc) {
      case rt::RunOutcome::Aborted:
        if (pol.starved()) {
            // Paper case (b): the second accessor cannot reach its
            // access while the first is held — synchronization
            // enforces a single ordering.
            if (opts.adhoc_detection) {
                r.kind = SingleResult::Kind::SingleOrd;
                r.detail = "alternate starved: ordering enforced by "
                           "synchronization";
            } else {
                r.kind = SingleResult::Kind::SpecViol;
                r.viol = ViolationKind::ReplayFailure;
                r.detail = "replay failure (alternate starved)";
            }
        } else {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = ViolationKind::ReplayFailure;
            r.detail = "alternate schedule aborted";
        }
        return r;

      case rt::RunOutcome::TimedOut:
        if (diagnoseInfiniteLoop(alt.state())) {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = ViolationKind::InfiniteLoop;
            r.detail = "loop with invariant exit condition in "
                       "alternate execution";
        } else if (opts.adhoc_detection) {
            r.kind = SingleResult::Kind::SingleOrd;
            r.detail = "busy-wait ad-hoc synchronization prevents the "
                       "alternate ordering";
        } else {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = ViolationKind::ReplayFailure;
            r.detail = "replay failure (alternate timed out)";
        }
        return r;

      case rt::RunOutcome::Deadlock:
        r.kind = SingleResult::Kind::SpecViol;
        r.viol = ViolationKind::Deadlock;
        r.detail = alt.state().outcome_detail;
        return r;

      case rt::RunOutcome::CrashOob:
      case rt::RunOutcome::CrashDivZero:
        if (!crashInvolvesRaceCell(alt.state(), race)) {
            // An unrelated bug surfaced by the perturbed schedule;
            // the paper queues such discoveries as separate reports.
            r.kind = SingleResult::Kind::Skipped;
            r.detail = "unrelated failure during alternate (queued "
                       "as separate report): " +
                       alt.state().outcome_detail;
            return r;
        }
        r.kind = SingleResult::Kind::SpecViol;
        r.viol = ViolationKind::Crash;
        r.detail = alt.state().outcome_detail;
        return r;

      case rt::RunOutcome::AssertFail:
        r.kind = SingleResult::Kind::SpecViol;
        r.viol = ViolationKind::SemanticAssert;
        r.detail = alt.state().outcome_detail;
        return r;

      case rt::RunOutcome::Exited: {
        if (!pol.enforced()) {
            // The second accessor never touched the cell on this
            // path: nothing was tested.
            r.kind = SingleResult::Kind::Skipped;
            r.detail = "alternate ordering not exercised on this path";
            return r;
        }
        // Busy-wait signature: the second thread re-executed its
        // racing access more often than the primary did — it looped
        // back through the read waiting for the held writer, so the
        // two accesses admit only one real ordering.
        if (primary_second_count > 0) {
            std::uint64_t alt_count = alt.state().accessCount(
                race.second.tid, race.second.pc);
            if (alt_count > primary_second_count) {
                if (opts.adhoc_detection) {
                    r.kind = SingleResult::Kind::SingleOrd;
                    r.detail =
                        "second accessor retried its racing access "
                        "(busy-wait ad-hoc synchronization)";
                } else {
                    r.kind = SingleResult::Kind::SpecViol;
                    r.viol = ViolationKind::ReplayFailure;
                    r.detail = "replay diverged (access re-executed)";
                }
                return r;
            }
        }
        r.kind = SingleResult::Kind::OutSame;
        r.alternate_out = std::move(alt.state().output);
        return r;
      }

      default:
        r.kind = SingleResult::Kind::Skipped;
        r.detail = "alternate run ended in unexpected state";
        return r;
    }
}

RaceAnalyzer::SingleResult
RaceAnalyzer::singleClassify(const race::RaceReport &race,
                             const replay::ScheduleTrace &trace,
                             const std::vector<std::int64_t> &inputs,
                             const explore::PostSpec &post,
                             const replay::CheckpointLadder *ladder,
                             AnalysisStats &stats) const
{
    SingleResult r;

    // With a usable rung, fork from the cached pre-race checkpoint
    // instead of replaying the prefix; the rung state carries the
    // prefix's step counters (so the ledger stays identical) and the
    // monitor adopts the prefix's predicate state.
    const replay::CheckpointLadder::Rung *rung =
        usableRung(ladder, race, inputs);
    rt::ExecOptions eo = baseOptions();
    eo.concrete_inputs = inputs;
    rt::Interpreter interp =
        rung ? rt::Interpreter(prog, std::move(eo), rung->state)
             : rt::Interpreter(prog, std::move(eo));
    SemanticMonitor sem(interp, opts.semantic_predicates);
    interp.addSink(&sem);

    rt::RotatePolicy rotate;
    replay::TracePolicy tp(trace, &rotate);
    interp.setPolicy(&tp);

    if (rung) {
        OBS_SPAN("ladder", "fork");
        if (obs::Collector *col = obs::collector())
            col->add(obs::Counter::LadderForks, 1);
        sem.restore(rung->semantics);
    } else {
        rt::Interpreter::StopSpec pre;
        pre.before_cell.push_back(
            {race.first.tid, race.cell, race.first.cell_occurrence});
        rt::RunOutcome pre_oc = interp.run(pre);

        if (!interp.stopped()) {
            absorbStats(stats, interp.state());
            if (rt::isSpecViolation(pre_oc)) {
                r.kind = SingleResult::Kind::SpecViol;
                r.viol = violationOf(pre_oc);
                r.detail = interp.state().outcome_detail;
            } else {
                r.kind = SingleResult::Kind::NotReached;
                r.detail = "race point not reached during replay";
            }
            return r;
        }
    }

    rt::VmState pre_ckpt = interp.state();
    rt::RunOutcome oc = rt::RunOutcome::Running;

    // Post-race primary snapshot: first accessor, then second.
    rt::Interpreter::StopSpec post_stop;
    post_stop.after_pair = {race.cell,
                            {race.first.tid, race.first.is_write},
                            {race.second.tid, race.second.is_write}};
    oc = interp.run(post_stop);
    const bool have_post_primary = interp.stopped();
    rt::VmState post_primary;
    if (have_post_primary)
        post_primary = interp.state();

    // The primary's final state: the interpreter's own, or the
    // ladder's end. Every primary resumed from a rung is the
    // ladder's own replay, so its tail ends where the ladder's did:
    // adopt that end (counters, output and monitor included) in
    // place instead of running the tail again.
    const rt::VmState *fin = &interp.state();
    if (!fin->finished()) {
        if (const replay::CheckpointLadder::End *end =
                usableEnd(ladder, rung)) {
            if (obs::Collector *col = obs::collector())
                col->add(obs::Counter::LadderStepsReused,
                         end->state.global_step - fin->global_step);
            fin = &end->state;
            sem.restore(end->semantics);
            oc = fin->outcome;
        } else {
            oc = interp.run();
        }
    }
    absorbStats(stats, *fin);

    if (!sem.violation().empty()) {
        r.kind = SingleResult::Kind::SpecViol;
        r.viol = ViolationKind::SemanticAssert;
        r.detail = sem.violation();
        return r;
    }
    if (rt::isSpecViolation(oc)) {
        const bool crash = oc == rt::RunOutcome::CrashOob ||
                           oc == rt::RunOutcome::CrashDivZero;
        if (!crash || crashInvolvesRaceCell(*fin, race)) {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = violationOf(oc);
            r.detail = fin->outcome_detail;
            return r;
        }
        // The primary replay died of a bug unrelated to this race
        // (e.g. another race in the same recording crashed first);
        // the paper queues such finds as separate reports instead of
        // blaming the race under analysis. The alternate ordering is
        // still probed from the pre-race checkpoint — it can reveal
        // ad-hoc synchronization or an attributable crash — but the
        // primary's truncated output admits no output comparison.
        std::uint64_t primary_second_count =
            fin->accessCount(race.second.tid, race.second.pc);
        // The crash truncated the primary, so its step count is a
        // useless yardstick for the alternate's timeout budget (an
        // alternate that avoids the crash legitimately runs much
        // longer). Hand the alternate the full step budget instead,
        // so only a genuine busy-wait can time out.
        SingleResult a = runAlternateFromState(
            pre_ckpt, race, inputs, post, opts.max_steps, nullptr,
            &trace, primary_second_count, stats);
        if (a.kind == SingleResult::Kind::SpecViol ||
            a.kind == SingleResult::Kind::SingleOrd) {
            return a;
        }
        r.kind = SingleResult::Kind::Skipped;
        r.detail = "unrelated failure during primary replay (queued "
                   "as separate report): " +
                   fin->outcome_detail;
        return r;
    }
    if (oc != rt::RunOutcome::Exited) {
        r.kind = SingleResult::Kind::NotReached;
        r.detail = std::string("primary replay ended with ") +
                   rt::runOutcomeName(oc);
        return r;
    }

    r.primary_steps = fin->global_step;
    std::uint64_t primary_second_count = fin->accessCount(
        race.second.tid, race.second.pc);

    SingleResult a = runAlternateFromState(
        pre_ckpt, race, inputs, post, r.primary_steps,
        have_post_primary ? &post_primary : nullptr, &trace,
        primary_second_count, stats);
    r.states_differ = a.states_differ;
    if (a.kind != SingleResult::Kind::OutSame) {
        a.states_differ = r.states_differ;
        a.primary_steps = r.primary_steps;
        return a;
    }

    r.alternate_enforced = a.alternate_enforced;
    r.observation = std::move(a.observation);
    r.alternate_out = std::move(a.alternate_out);
    OutputComparison cmp = compareConcreteOutputs(
        fin->output, r.alternate_out, race.first.tid, race.second.tid);
    if (!cmp.match) {
        r.kind = SingleResult::Kind::OutDiff;
        r.output_diff = cmp.diff;
    } else {
        r.kind = SingleResult::Kind::OutSame;
    }
    return r;
}

RaceAnalyzer::SingleResult
RaceAnalyzer::runAlternate(const race::RaceReport &race,
                           const replay::ScheduleTrace &trace,
                           const std::vector<std::int64_t> &inputs,
                           const explore::PostSpec &post,
                           std::uint64_t budget_steps,
                           const replay::CheckpointLadder *ladder,
                           AnalysisStats &stats) const
{
    // The rung is valid here too: on the faithful pre-race prefix
    // the PrimarySearchPolicy follows the trace decision-for-
    // decision exactly like the ladder's strict TracePolicy did.
    if (const replay::CheckpointLadder::Rung *rung =
            usableRung(ladder, race, inputs)) {
        OBS_SPAN("ladder", "fork");
        if (obs::Collector *col = obs::collector())
            col->add(obs::Counter::LadderForks, 1);
        absorbStats(stats, rung->state);
        return runAlternateFromState(rung->state, race, inputs, post,
                                     budget_steps, nullptr, &trace, 0,
                                     stats);
    }

    rt::ExecOptions eo = baseOptions();
    eo.concrete_inputs = inputs;
    rt::Interpreter interp(prog, eo);
    PrimarySearchPolicy pol(trace, race);
    interp.setPolicy(&pol);

    rt::Interpreter::StopSpec pre;
    pre.before_cell.push_back(
        {race.first.tid, race.cell, race.first.cell_occurrence});
    rt::RunOutcome oc = interp.run(pre);
    absorbStats(stats, interp.state());

    SingleResult r;
    if (!interp.stopped()) {
        if (rt::isSpecViolation(oc)) {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = violationOf(oc);
            r.detail = interp.state().outcome_detail;
        } else {
            r.kind = SingleResult::Kind::Skipped;
            r.detail = "pre-race replay did not reach the race";
        }
        return r;
    }
    return runAlternateFromState(interp.state(), race, inputs, post,
                                 budget_steps, nullptr, &trace, 0,
                                 stats);
}

RaceAnalyzer::EvidenceReplay
RaceAnalyzer::replayEvidence(const race::RaceReport &race,
                             const replay::ScheduleTrace &trace,
                             const Classification &verdict) const
{
    EvidenceReplay out;
    AnalysisStats scratch;
    const std::vector<std::int64_t> inputs =
        verdict.evidence_inputs.empty() ? trace.concreteInputs()
                                        : verdict.evidence_inputs;

    if (!verdict.evidence_alternate) {
        // The primary ordering itself is the evidence: replay it.
        rt::ExecOptions eo = baseOptions();
        eo.concrete_inputs = inputs;
        rt::Interpreter interp(prog, eo);
        PrimarySearchPolicy pol(trace, race);
        interp.setPolicy(&pol);
        out.outcome = interp.run();
        out.detail = interp.state().outcome_detail;
        out.output = std::move(interp.state().output);
        return out;
    }

    const std::uint64_t budget =
        trace.decisions.empty() ? opts.max_steps
                                : trace.decisions.back().step + 1;
    // Rebuild the post-race schedule the evidence names: an
    // explorer-issued decision prefix replays exactly (guided runs
    // are prefix + deterministic fallback), a seed replays the
    // random sampler, and neither means the stage-1 trace-following
    // alternate.
    explore::PostSpec spec;
    if (!verdict.evidence_schedule.empty()) {
        spec = explore::PostSpec::guided(
            {verdict.evidence_schedule.begin(),
             verdict.evidence_schedule.end()});
    } else if (verdict.evidence_seed != 0) {
        spec = explore::PostSpec::random(verdict.evidence_seed);
    } else {
        spec = explore::PostSpec::trace();
    }
    SingleResult r = runAlternate(race, trace, inputs, spec, budget,
                                  nullptr, scratch);
    switch (r.kind) {
      case SingleResult::Kind::SpecViol:
        // Reconstruct the concrete outcome class from the verdict.
        out.outcome =
            r.viol == ViolationKind::Deadlock
                ? rt::RunOutcome::Deadlock
                : r.viol == ViolationKind::InfiniteLoop
                      ? rt::RunOutcome::TimedOut
                      : r.viol == ViolationKind::SemanticAssert
                            ? rt::RunOutcome::AssertFail
                            : rt::RunOutcome::CrashOob;
        break;
      default:
        out.outcome = rt::RunOutcome::Exited;
        break;
    }
    out.detail = r.detail;
    out.output = std::move(r.alternate_out);
    return out;
}

namespace {

const char *
postSpecKind(const explore::PostSpec &s)
{
    switch (s.kind) {
      case explore::PostSpec::Kind::Trace:
        return "trace";
      case explore::PostSpec::Kind::Random:
        return "random";
      case explore::PostSpec::Kind::Guided:
        return "guided";
    }
    return "?";
}

/** `--progress jsonl`: one line per explored post-race schedule. */
void
emitScheduleEvent(const explore::PostSpec &spec, int path, bool fresh,
                  int distinct, int schedules)
{
    if (!obs::progress())
        return;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "{\"event\": \"schedule\", \"kind\": \"%s\", "
                  "\"path\": %d, \"fresh\": %s, \"distinct\": %d, "
                  "\"schedules_explored\": %d}",
                  postSpecKind(spec), path, fresh ? "true" : "false",
                  distinct, schedules);
    obs::progressLine(buf);
}

} // namespace

Classification
RaceAnalyzer::classify(const race::RaceReport &race,
                       const replay::ScheduleTrace &trace,
                       const replay::CheckpointLadder *ladder) const
{
    obs::Span cls_span("classify", "classify-race");
    cls_span.arg("cell", race.cell);
    Stopwatch sw;
    Classification c;
    std::optional<exec::Executor> ex;
    analyze(race, trace, ladder, c, ex);
    if (ex)
        c.stats.solver_queries = ex->solver().queries();
    c.stats.seconds = sw.seconds();
    return c;
}

void
RaceAnalyzer::analyze(const race::RaceReport &race,
                      const replay::ScheduleTrace &trace,
                      const replay::CheckpointLadder *ladder,
                      Classification &c,
                      std::optional<exec::Executor> &ex) const
{
    /** A primary execution stage 3 pairs with post-race schedules. */
    struct Primary
    {
        std::vector<std::int64_t> inputs;
        std::vector<WitnessInput> witness; ///< named symbolic inputs
        const exec::PathResult *path = nullptr; ///< null: stage 1's
        int index = 0; ///< 1-based over every explored path, else 0
    };
    // Write a decisive result's verdict and the evidence replaying
    // it: the alternate's post-race schedule @p post (null when the
    // primary itself is the evidence) and, under an explorer @p sx,
    // the signature of the interleaving it realized.
    const auto verdict = [&c](const SingleResult &r, const Primary &p,
                              const explore::PostSpec *post,
                              const explore::ScheduleExplorer *sx) {
        c.detail = r.detail;
        switch (r.kind) {
          case SingleResult::Kind::SpecViol:
            c.cls = RaceClass::SpecViolated;
            c.viol = r.viol;
            break;
          case SingleResult::Kind::OutDiff:
            c.cls = RaceClass::OutputDiffers;
            c.output_diff = r.output_diff;
            break;
          case SingleResult::Kind::SingleOrd:
            c.cls = RaceClass::SingleOrdering;
            return;
          default:
            c.cls = RaceClass::Unclassified;
            return;
        }
        c.evidence_inputs = p.inputs;
        c.evidence_witness = p.witness;
        c.evidence_alternate = post != nullptr;
        if (!post)
            return;
        c.evidence_seed = post->seed;
        c.evidence_schedule.assign(post->prefix.begin(),
                                   post->prefix.end());
        if (sx && r.alternate_enforced)
            c.evidence_signature = sx->lastSignature();
    };
    // A violation the primary execution itself shows.
    const auto primaryViolation = [](ViolationKind viol,
                                     std::string detail) {
        SingleResult r;
        r.kind = SingleResult::Kind::SpecViol;
        r.viol = viol;
        r.detail = std::move(detail);
        return r;
    };
    const Primary recorded{trace.concreteInputs(), {}, nullptr, 0};
    const explore::PostSpec follow_trace = explore::PostSpec::trace();

    // ---- Stage 1: single-pre/single-post (Algorithm 1). ----
    SingleResult s1;
    {
        OBS_SPAN("classify", "stage1");
        s1 = singleClassify(race, trace, recorded.inputs, follow_trace,
                            ladder, c.stats);
    }
    c.states_differ = s1.states_differ;
    if (s1.kind != SingleResult::Kind::OutSame) {
        verdict(s1, recorded, &follow_trace, nullptr);
        return;
    }
    int witnesses = 1; // stage 1 matched
    c.stats.schedules_explored = 1;

    // Whether decisive verdicts carry a named input witness.
    const bool named = !opts.sym_inputs.empty();

    // ---- Stage 2: the primaries. Multi-path explores up to Mp
    // symbolic paths that follow the trace to the race; without it,
    // multi-schedule reruns stage 1's concrete primary. ----
    std::vector<exec::PathResult> paths;
    std::vector<Primary> primaries;
    if (opts.multi_path) {
        rt::ExecOptions eo = baseOptions();
        eo.input_mode = rt::InputMode::Symbolic;
        eo.max_symbolic_inputs = kMaxSymbolicInputs;
        eo.sym_inputs = opts.sym_inputs;
        rt::Interpreter sym_interp(prog, eo);

        exec::ExecutorOptions xo;
        xo.max_paths = opts.mp;
        xo.max_states = opts.executor_max_states;
        ex.emplace(xo);

        SemanticMonitor sem(sym_interp, opts.semantic_predicates);
        sym_interp.addSink(&sem);
        {
            OBS_SPAN("sym", "explore-paths");
            paths = ex->explore(
                sym_interp,
                [&] {
                    return std::make_unique<PrimarySearchPolicy>(trace,
                                                                 race);
                },
                [&](const rt::VmState &s) {
                    return PrimarySearchPolicy::racePassed(s, race);
                });
        }
        c.stats.paths_explored = static_cast<int>(paths.size());
        c.stats.states_created = ex->statesCreated();
        absorbStats(c.stats, sym_interp.state());

        for (const exec::PathResult &p : paths) {
            Primary primary{concretizeEnvLog(p.state.env_log, p.model),
                            named ? witnessOf(p.state.env_log, p.model)
                                  : std::vector<WitnessInput>{},
                            &p, static_cast<int>(&p - paths.data()) + 1};
            // A primary path itself violating the specification is
            // direct evidence of harm (when attributable to this
            // race).
            const rt::RunOutcome oc = p.state.outcome;
            if (rt::isSpecViolation(oc) &&
                ((oc != rt::RunOutcome::CrashOob &&
                  oc != rt::RunOutcome::CrashDivZero) ||
                 crashInvolvesRaceCell(p.state, race))) {
                verdict(primaryViolation(violationOf(oc),
                                         p.state.outcome_detail),
                        primary, nullptr, nullptr);
                return;
            }
            // Only cleanly-completed primaries have comparable
            // output streams.
            if (oc == rt::RunOutcome::Exited)
                primaries.push_back(std::move(primary));
        }
        if (!sem.violation().empty()) {
            verdict(primaryViolation(ViolationKind::SemanticAssert,
                                     sem.violation()),
                    {}, nullptr, nullptr);
            return;
        }
    } else if (opts.multi_schedule) {
        primaries.push_back(recorded);
    }

    // ---- Stage 3: Algorithm 1 for every primary x post-race
    // schedule. The explorer issues each primary's schedules: Ma
    // seeded samples under `random`, the same samples plus
    // systematic bounded-preemption backtracking until Ma *distinct*
    // interleaving classes under `dpor`. Without multi-schedule each
    // primary gets the one trace-following alternate. ----
    const std::uint64_t budget =
        trace.decisions.empty() ? opts.max_steps
                                : trace.decisions.back().step + 1;
    // Under named symbolic inputs the distinct-schedule budget is
    // shared: each path's explorer inherits the interleaving classes
    // earlier paths witnessed (per-path budgeting).
    std::set<std::string> known_sigs;
    for (const Primary &p : primaries) {
        std::optional<explore::ScheduleExplorer> sx;
        if (opts.multi_schedule) {
            explore::ExplorerOptions xopts;
            xopts.mode = opts.explore;
            xopts.budget = opts.ma;
            // Legacy seed layout: seed j of path p is p * 16 + j.
            xopts.seed_base = static_cast<std::uint64_t>(p.index) * 16;
            if (named)
                xopts.known = known_sigs;
            sx.emplace(std::move(xopts));
        }
        std::optional<explore::PostSpec> post =
            sx ? sx->next() : follow_trace;
        for (; post; post = sx ? sx->next() : std::nullopt) {
            obs::Span cand_span("explore", "dpor-candidate");
            cand_span.arg("path", p.index);
            c.stats.schedules_explored += 1;
            SingleResult a;
            if (p.path) {
                a = runAlternate(race, trace, p.inputs, *post, budget,
                                 ladder, c.stats);
            } else {
                a = singleClassify(race, trace, p.inputs, *post, ladder,
                                   c.stats);
            }
            // Only an enforced alternate witnessed a post-race
            // schedule; everything else teaches the explorer nothing.
            const bool fresh = sx && a.alternate_enforced &&
                               sx->record(std::move(a.observation));
            if (sx) {
                emitScheduleEvent(*post, p.index, fresh, sx->distinct(),
                                  c.stats.schedules_explored);
            }
            if (p.path && a.kind == SingleResult::Kind::OutSame) {
                OutputComparison cmp = compareSymbolicOutputs(
                    p.path->state.output, p.path->state.path.constraints(),
                    a.alternate_out, ex->solver(), race.first.tid,
                    race.second.tid);
                if (!cmp.match) {
                    a.kind = SingleResult::Kind::OutDiff;
                    a.output_diff = std::move(cmp.diff);
                    a.detail = "outputs diverge on an explored "
                               "path/schedule";
                }
            }
            if (a.kind == SingleResult::Kind::SpecViol ||
                a.kind == SingleResult::Kind::OutDiff) {
                verdict(a, p, &*post, sx ? &*sx : nullptr);
                if (sx)
                    c.stats.distinct_schedules += sx->distinct();
                return;
            }
            // Under dpor a witness is a *distinct* interleaving
            // class; the random sampler keeps its legacy run
            // counting, and a lone alternate is always one.
            if (a.kind == SingleResult::Kind::OutSame &&
                (!sx || opts.explore == explore::ExploreMode::Random ||
                 fresh)) {
                witnesses += 1;
            }
        }
        if (sx) {
            c.stats.distinct_schedules += sx->distinct();
            if (named)
                known_sigs = sx->signatures();
        }
    }

    c.cls = RaceClass::KWitnessHarmless;
    c.k = witnesses;
    c.detail = "outputs equivalent across " +
               std::to_string(witnesses) +
               " path-schedule combinations";
}

} // namespace portend::core
