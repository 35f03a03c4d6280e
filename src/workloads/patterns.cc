#include "workloads/patterns.h"

using portend::ir::I;
using portend::ir::R;
using K = portend::sym::ExprKind;

namespace portend::workloads {

namespace {

/**
 * Producer-side delay on a fresh private global. Unlike extra
 * consumer reads, this inflates the *spin iteration count* of the
 * consumer (each iteration re-executes the same racing load pc), so
 * dynamic race instances grow without adding clusters.
 */
void
emitProducerDelay(PatternCtx &ctx, const std::string &tag, int iters)
{
    if (iters <= 0)
        return;
    ir::GlobalId cell = ctx.pb->global(tag + "_work");
    ir::Reg i = ctx.producer->iconst(iters);
    ir::BlockId loop = ctx.producer->block(tag + "_work_loop");
    ir::BlockId next = ctx.producer->block(tag + "_work_done");
    ctx.producer->jmp(loop);
    ctx.producer->to(loop);
    ir::Reg v = ctx.producer->load(cell);
    ctx.producer->store(cell, I(0),
                        R(ctx.producer->bin(K::Add, R(v), I(1))));
    ctx.producer->binInto(i, K::Sub, R(i), I(1));
    ctx.producer->br(R(ctx.producer->bin(K::Sgt, R(i), I(0))), loop,
                     next);
    ctx.producer->to(next);
}

} // namespace

std::pair<ExpectedRace, ExpectedRace>
emitSpinFlag(PatternCtx ctx, const std::string &tag, int spin_pad)
{
    ir::GlobalId flag = ctx.pb->global(tag + "_flag");
    ir::GlobalId data = ctx.pb->global(tag + "_data");

    // Producer: work, publish data, then raise the flag (Fig. 8d).
    emitProducerDelay(ctx, tag, spin_pad);
    ctx.producer->store(data, I(0), I(42));
    ctx.producer->store(flag, I(0), I(1));

    // Consumer: busy-wait on the flag, then consume the data.
    ir::BlockId spin = ctx.consumer->block(tag + "_spin");
    ir::BlockId done = ctx.consumer->block(tag + "_done");
    ctx.consumer->jmp(spin);
    ctx.consumer->to(spin);
    ir::Reg f = ctx.consumer->load(flag);
    ctx.consumer->br(R(f), done, spin);
    ctx.consumer->to(done);
    ctx.consumer->load(data);

    ExpectedRace flag_race;
    flag_race.cell = tag + "_flag";
    flag_race.truth = core::RaceClass::SingleOrdering;
    flag_race.portend_expected = core::RaceClass::SingleOrdering;
    flag_race.required_level = 1; // needs ad-hoc detection

    ExpectedRace data_race = flag_race;
    data_race.cell = tag + "_data";
    return {flag_race, data_race};
}

ExpectedRace
emitSpinFlagOnly(PatternCtx ctx, const std::string &tag, int spin_pad)
{
    ir::GlobalId flag = ctx.pb->global(tag + "_flag");

    emitProducerDelay(ctx, tag, spin_pad);
    ctx.producer->store(flag, I(0), I(1));

    ir::BlockId spin = ctx.consumer->block(tag + "_spin");
    ir::BlockId done = ctx.consumer->block(tag + "_done");
    ctx.consumer->jmp(spin);
    ctx.consumer->to(spin);
    ir::Reg f = ctx.consumer->load(flag);
    ctx.consumer->br(R(f), done, spin);
    ctx.consumer->to(done);

    ExpectedRace race;
    race.cell = tag + "_flag";
    race.truth = core::RaceClass::SingleOrdering;
    race.portend_expected = core::RaceClass::SingleOrdering;
    race.required_level = 1;
    return race;
}

ExpectedRace
emitPrintedValueRace(PatternCtx ctx, const std::string &tag,
                     std::int64_t value)
{
    ir::GlobalId cell = ctx.pb->global(tag);

    ctx.producer->store(cell, I(0), I(value));

    ir::Reg r = ctx.consumer->load(cell);
    ctx.consumer->output(tag, R(r));

    ExpectedRace race;
    race.cell = tag;
    race.truth = core::RaceClass::OutputDiffers;
    race.portend_expected = core::RaceClass::OutputDiffers;
    race.required_level = 0;
    return race;
}

ExpectedRace
emitInputGatedPrintRace(PatternCtx ctx, const std::string &tag,
                        std::int64_t value, ir::GlobalId config)
{
    ir::GlobalId cell = ctx.pb->global(tag);

    ctx.producer->store(cell, I(0), I(value));

    // The gate global is written by main before the threads spawn,
    // so loading it is properly ordered (no extra race).
    ir::Reg g = ctx.consumer->load(config);
    ir::Reg r = ctx.consumer->load(cell);
    ir::BlockId on = ctx.consumer->block(tag + "_verbose");
    ir::BlockId off = ctx.consumer->block(tag + "_quiet");
    ir::BlockId join = ctx.consumer->block(tag + "_join");
    ctx.consumer->br(R(g), on, off);
    ctx.consumer->to(on);
    ctx.consumer->output(tag, R(r));
    ctx.consumer->jmp(join);
    ctx.consumer->to(off);
    ctx.consumer->output(tag, I(0));
    ctx.consumer->jmp(join);
    ctx.consumer->to(join);

    ExpectedRace race;
    race.cell = tag;
    race.truth = core::RaceClass::OutputDiffers;
    race.portend_expected = core::RaceClass::OutputDiffers;
    race.required_level = 2; // needs multi-path analysis
    return race;
}

ExpectedRace
emitLogOrderRace(PatternCtx ctx, const std::string &tag)
{
    ir::GlobalId cell = ctx.pb->global(tag);

    // Producer half: publish immediately (so the primary's reads
    // see the flag and the representative pair is write-then-read).
    ctx.producer->store(cell, I(0), I(1));

    // Consumer-side preamble work delays the polls past the store
    // in the recorded run; reads-first primaries would make the
    // race visible to single-path analysis instead.
    {
        ir::GlobalId work = ctx.pb->global(tag + "_cwork");
        ir::Reg i = ctx.consumer->iconst(3);
        ir::BlockId loop = ctx.consumer->block(tag + "_cw_loop");
        ir::BlockId next = ctx.consumer->block(tag + "_cw_done");
        ctx.consumer->jmp(loop);
        ctx.consumer->to(loop);
        ir::Reg v = ctx.consumer->load(work);
        ctx.consumer->store(work, I(0),
                            R(ctx.consumer->bin(K::Add, R(v), I(1))));
        ctx.consumer->binInto(i, K::Sub, R(i), I(1));
        ctx.consumer->br(R(ctx.consumer->bin(K::Sgt, R(i), I(0))),
                         loop, next);
        ctx.consumer->to(next);
    }

    // Producer logs right after publishing; the consumer reads the
    // cell (value unused) and logs its own record. The reversal of
    // the racing pair alone keeps the two records in the recorded
    // order (the enforced alternate resumes the producer's slot),
    // so single-pre/single-post sees identical output; only a
    // randomized post-race schedule reorders the two threads' log
    // records (multi-schedule analysis, §3.4).
    ctx.producer->outputStr(tag + ":produced");
    ctx.consumer->load(cell); // racing read
    // The yield is a scheduling point between the racing read and
    // the log write; the deterministic alternate resumes the
    // recorded schedule there, a randomized one may not.
    ctx.consumer->yield();
    ctx.consumer->outputStr(tag + ":consumed");

    ExpectedRace race;
    race.cell = tag;
    race.truth = core::RaceClass::OutputDiffers;
    race.portend_expected = core::RaceClass::OutputDiffers;
    race.required_level = 3; // needs multi-schedule analysis
    return race;
}

ExpectedRace
emitLastWriterRace(PatternCtx ctx, const std::string &tag,
                   std::int64_t v1, std::int64_t v2)
{
    ir::GlobalId cell = ctx.pb->global(tag);
    ctx.producer->store(cell, I(0), I(v1));
    ctx.consumer->store(cell, I(0), I(v2));

    ExpectedRace race;
    race.cell = tag;
    race.truth = core::RaceClass::KWitnessHarmless;
    race.portend_expected = core::RaceClass::KWitnessHarmless;
    race.required_level = 0;
    return race;
}

ExpectedRace
emitOverflowCrashRace(PatternCtx ctx, const std::string &tag,
                      int table_size)
{
    ir::GlobalId idx = ctx.pb->global(
        tag + "_idx", 1, {table_size - 1});
    ir::GlobalId table = ctx.pb->global(tag + "_table", table_size);

    // Consumer (early): read the index and store through it. In the
    // primary ordering the index is still in bounds.
    ir::Reg i = ctx.consumer->load(idx);
    ctx.consumer->store(table, R(i), I(7));

    // Producer (late): bump the index past the table end; if the
    // bump is reordered before the consumer's use, the store above
    // goes out of bounds.
    ir::Reg v = ctx.producer->load(idx);
    ctx.producer->store(idx, I(0),
                        R(ctx.producer->bin(K::Add, R(v), I(1))));

    ExpectedRace race;
    race.cell = tag + "_idx";
    race.truth = core::RaceClass::SpecViolated;
    race.viol = core::ViolationKind::Crash;
    race.portend_expected = core::RaceClass::SpecViolated;
    race.required_level = 0;
    return race;
}

} // namespace portend::workloads
