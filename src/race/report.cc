#include "race/report.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

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
    int lo = std::min(first.pc, second.pc);
    int hi = std::max(first.pc, second.pc);
    std::ostringstream os;
    os << cell << ":" << lo << ":" << hi;
    return os.str();
}

std::string
RaceReport::describe(const ir::Program &p) const
{
    std::ostringstream os;
    os << "Data race during access to: " << p.cellName(cell) << "\n";
    os << "  current thread id: " << second.tid << ": "
       << (second.is_write ? "WRITE" : "READ") << "\n";
    os << "  racing thread id: " << first.tid << ": "
       << (first.is_write ? "WRITE" : "READ") << "\n";
    os << "  Current thread at: " << second.loc.toString() << " (pc"
       << second.pc << ")\n";
    os << "  Previous at: " << first.loc.toString() << " (pc"
       << first.pc << ")\n";
    return os.str();
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
