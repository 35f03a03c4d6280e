#include "race/lockset.h"

#include <algorithm>

namespace portend::race {

LocksetDetector::LocksetDetector(const ir::Program &p) : prog(p)
{
    reset();
}

void
LocksetDetector::reset()
{
    held.clear();
    cells.clear();
    reports.clear();
    evictions_ = 0;
}

void
LocksetDetector::onEvent(const rt::Event &ev)
{
    switch (ev.kind) {
      case rt::EventKind::MutexLock:
        held[ev.tid].insert(ev.sid);
        return;
      case rt::EventKind::MutexUnlock:
        held[ev.tid].erase(ev.sid);
        return;
      case rt::EventKind::MemRead:
      case rt::EventKind::MemWrite:
        break;
      default:
        return;
    }

    const bool is_write = ev.kind == rt::EventKind::MemWrite;
    CellState &cs = cells[ev.cell];

    const std::set<int> &mine = held[ev.tid];
    if (!cs.lockset_valid) {
        cs.candidate = mine;
        cs.lockset_valid = true;
    } else {
        std::set<int> inter;
        std::set_intersection(cs.candidate.begin(), cs.candidate.end(),
                              mine.begin(), mine.end(),
                              std::inserter(inter, inter.begin()));
        cs.candidate = std::move(inter);
    }
    cs.accessors.insert(ev.tid);
    cs.any_write = cs.any_write || is_write;

    if (cs.candidate.empty() && cs.accessors.size() > 1 &&
        cs.any_write) {
        // Pair the new access with the most recent conflicting one
        // from another thread.
        for (std::size_t i = cs.accesses.size(); i-- > 0;) {
            const rt::Event &old = cs.accesses[i];
            if (old.tid != ev.tid &&
                (old.kind == rt::EventKind::MemWrite || is_write)) {
                RaceReport r;
                r.cell = ev.cell;
                r.first = raceAccessOf(old);
                r.second = raceAccessOf(ev);
                reports.push_back(std::move(r));
                break;
            }
        }
    }
    if (cs.accesses.push(ev))
        evictions_ += 1;
}

} // namespace portend::race
