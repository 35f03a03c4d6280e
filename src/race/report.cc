#include "race/report.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "support/str.h"

namespace portend::race {

RaceAccess
raceAccessOf(const rt::Event &ev)
{
    RaceAccess acc;
    acc.tid = ev.tid;
    acc.pc = ev.pc;
    acc.is_write = ev.kind == rt::EventKind::MemWrite;
    acc.atomic = ev.atomic;
    acc.occurrence = ev.occurrence;
    acc.cell_occurrence = ev.cell_occurrence;
    acc.step = ev.step;
    if (ev.loc)
        acc.loc = *ev.loc;
    return acc;
}

std::string
RaceReport::key() const
{
    std::string out;
    appendNum(out, cell);
    out += ':';
    appendNum(out, std::min(first.pc, second.pc));
    out += ':';
    appendNum(out, std::max(first.pc, second.pc));
    return out;
}

std::string
RaceReport::describe(const ir::Program &p) const
{
    std::string out = "Data race during access to: ";
    out += p.cellName(cell);
    out += "\n  current thread id: ";
    appendNum(out, second.tid);
    out += second.is_write ? ": WRITE\n" : ": READ\n";
    out += "  racing thread id: ";
    appendNum(out, first.tid);
    out += first.is_write ? ": WRITE\n" : ": READ\n";
    out += "  Current thread at: ";
    out += second.loc.toString();
    out += " (pc";
    appendNum(out, second.pc);
    out += ")\n  Previous at: ";
    out += first.loc.toString();
    out += " (pc";
    appendNum(out, first.pc);
    out += ")\n";
    return out;
}

std::vector<RaceCluster>
clusterRaces(const std::vector<RaceReport> &reports)
{
    // The static race's identity as integers: the triple key()
    // prints, without formatting it per dynamic occurrence.
    using StaticRace = std::tuple<int, int, int>;
    std::map<StaticRace, std::size_t> index;
    std::vector<const RaceReport *> latest;
    std::vector<int> instances;
    for (const auto &r : reports) {
        const StaticRace id{r.cell, std::min(r.first.pc, r.second.pc),
                            std::max(r.first.pc, r.second.pc)};
        auto [it, inserted] = index.emplace(id, latest.size());
        if (inserted) {
            latest.push_back(&r);
            instances.push_back(1);
        } else {
            // Keep the *latest* occurrence as representative: for
            // flag-style synchronization the mature pair (write
            // before the consuming read) is the one whose alternate
            // ordering reveals the ad-hoc synchronization.
            latest[it->second] = &r;
            instances[it->second] += 1;
        }
    }
    std::vector<RaceCluster> out;
    out.reserve(latest.size());
    for (std::size_t i = 0; i < latest.size(); ++i)
        out.push_back({*latest[i], instances[i]});
    return out;
}

} // namespace portend::race
