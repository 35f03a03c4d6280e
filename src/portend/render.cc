#include "portend/render.h"

#include <cstdio>
#include <iomanip>
#include <sstream>

#include "rt/interpreter.h"

namespace portend::core {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
summaryText(const PortendResult &res)
{
    std::ostringstream os;
    os << "summary: " << res.detection.clusters.size()
       << " distinct race(s), " << res.detection.dynamic_races
       << " dynamic instance(s)\n";
    for (RaceClass c : kAllRaceClasses) {
        std::size_t n = res.byClass(c).size();
        if (n) {
            os << "  " << std::left << std::setw(20)
               << raceClassName(c) << ' ' << n << "\n";
        }
    }
    return os.str();
}

std::string
jsonReport(const std::string &name, const ir::Program &prog,
           const PortendResult &res,
           const std::vector<const PortendReport *> &reports)
{
    std::ostringstream os;
    os << "{\n  \"workload\": \"" << jsonEscape(name) << "\",\n";
    os << "  \"detection\": {\n";
    os << "    \"outcome\": \""
       << rt::runOutcomeName(res.detection.outcome) << "\",\n";
    os << "    \"dynamic_races\": " << res.detection.dynamic_races
       << ",\n";
    os << "    \"distinct_races\": " << res.detection.clusters.size()
       << ",\n";
    os << "    \"steps\": " << res.detection.steps << "\n  },\n";
    os << "  \"reports\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const PortendReport &r = *reports[i];
        const Classification &c = r.classification;
        os << "    {\n";
        os << "      \"cell\": \""
           << jsonEscape(
                  prog.cellName(r.cluster.representative.cell))
           << "\",\n";
        os << "      \"instances\": " << r.cluster.instances << ",\n";
        os << "      \"class\": \"" << raceClassName(c.cls)
           << "\",\n";
        os << "      \"violation\": \""
           << violationKindName(c.viol) << "\",\n";
        os << "      \"k\": " << c.k << ",\n";
        os << "      \"states_differ\": "
           << (c.states_differ ? "true" : "false") << ",\n";
        os << "      \"witness\": [";
        for (std::size_t j = 0; j < c.evidence_witness.size(); ++j) {
            const WitnessInput &wi = c.evidence_witness[j];
            os << (j ? ", " : "") << "{\"name\": \""
               << jsonEscape(wi.name) << "\", \"value\": " << wi.value
               << "}";
        }
        os << "],\n";
        os << "      \"distinct_schedules\": "
           << c.metrics.counter(obs::Counter::ClassifyDistinctSchedules)
           << ",\n";
        os << "      \"signature\": \""
           << jsonEscape(c.evidence_signature) << "\",\n";
        os << "      \"detail\": \"" << jsonEscape(c.detail)
           << "\"\n";
        os << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    os << "  ]\n}";
    return os.str();
}

std::string
runText(const std::string &name, const ir::Program &prog,
        const PortendResult &res,
        const std::vector<const PortendReport *> &reports)
{
    std::ostringstream os;
    os << "== portend run: " << name << " ==\n";
    for (const PortendReport *r : reports)
        os << formatReport(prog, *r) << "\n";
    os << summaryText(res);
    return os.str();
}

std::string
classifyText(const std::string &name, const ir::Program &prog,
             const PortendResult &res,
             const std::vector<const PortendReport *> &reports,
             int mp, int ma)
{
    std::ostringstream os;
    os << "== portend classify: " << name << " (Mp=" << mp
       << ", Ma=" << ma << ") ==\n";
    os << std::left << std::setw(24) << "cell" << ' ' << std::setw(20)
       << "class" << ' ' << std::right << std::setw(6) << "k" << ' '
       << std::setw(10) << "instances" << "\n";
    for (const PortendReport *r : reports) {
        os << std::left << std::setw(24)
           << prog.cellName(r->cluster.representative.cell) << ' '
           << std::setw(20) << raceClassName(r->classification.cls)
           << ' ' << std::right << std::setw(6)
           << r->classification.k << ' ' << std::setw(10)
           << r->cluster.instances << "\n";
    }
    os << summaryText(res);
    return os.str();
}

std::string
renderPipelineReport(const std::string &name, const ir::Program &prog,
                     const PortendResult &res, int mp, int ma,
                     const RenderMode &mode)
{
    std::vector<const PortendReport *> selected;
    for (const PortendReport &r : res.reports)
        if (!mode.only_class ||
            r.classification.cls == *mode.only_class)
            selected.push_back(&r);

    if (mode.json)
        return jsonReport(name, prog, res, selected) + "\n";
    return mode.classify_mode
               ? classifyText(name, prog, res, selected, mp, ma)
               : runText(name, prog, res, selected);
}

} // namespace portend::core
