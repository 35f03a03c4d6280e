#include "rt/vmstate.h"

#include <sstream>

namespace portend::rt {

MemImage::MemImage(std::vector<Value> cells)
{
    n = cells.size();
    pages.reserve((n + kPageCells - 1) / kPageCells);
    for (std::size_t at = 0; at < n; at += kPageCells) {
        const std::size_t end = std::min(n, at + kPageCells);
        CowVec<Value> &page = pages.emplace_back();
        auto w = page.rw();
        w.resize(end - at);
        for (std::size_t i = at; i < end; ++i)
            w[i - at] = std::move(cells[i]);
    }
}

const char *
runOutcomeName(RunOutcome o)
{
    switch (o) {
      case RunOutcome::Running: return "running";
      case RunOutcome::Exited: return "exited";
      case RunOutcome::CrashOob: return "crash-oob";
      case RunOutcome::CrashDivZero: return "crash-div-zero";
      case RunOutcome::AssertFail: return "assert-fail";
      case RunOutcome::Deadlock: return "deadlock";
      case RunOutcome::TimedOut: return "timed-out";
      case RunOutcome::Aborted: return "aborted";
    }
    return "?";
}

bool
isSpecViolation(RunOutcome o)
{
    switch (o) {
      case RunOutcome::CrashOob:
      case RunOutcome::CrashDivZero:
      case RunOutcome::AssertFail:
      case RunOutcome::Deadlock:
        return true;
      default:
        return false;
    }
}

std::string
OutputRecord::toString() const
{
    std::ostringstream os;
    os << label;
    if (value) {
        os << "=";
        if (value->isConcrete())
            os << value->constValue();
        else
            os << value->toString();
    }
    return os.str();
}

void
VmState::runnableInto(std::vector<ThreadId> &out) const
{
    out.clear();
    for (const auto &t : threads) {
        if (t.runnable())
            out.push_back(t.tid);
    }
}

bool
VmState::allExited() const
{
    for (const auto &t : threads) {
        if (t.status != ThreadStatus::Exited)
            return false;
    }
    return true;
}

bool
MemImage::equals(const MemImage &o) const
{
    if (n != o.n)
        return false;
    for (std::size_t i = 0; i < n;) {
        if (sharesPage(i, o)) {
            i = pageEnd(i);
            continue;
        }
        if (!(*this)[i].equals(o[i]))
            return false;
        ++i;
    }
    return true;
}

void
VmState::unshareAll()
{
    mem.unshareAll();
    for (auto &t : threads) {
        t.stack.rw();
        t.regs.rw();
        t.counts.rw();
    }
}

} // namespace portend::rt
